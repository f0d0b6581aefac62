"""The Perlmutter 80 GB variant: a machine the paper did not measure."""


class TestPerlmutter80GB:
    def test_variant_builds_and_differs(self):
        from repro.machines.doe_gpu import build_perlmutter_80gb
        from repro.machines.registry import get_machine

        variant = build_perlmutter_80gb()
        measured = get_machine("perlmutter")
        assert variant.node.gpus[0].memory.capacity == 80 * 2**30
        assert variant.node.gpus[0].peak_bandwidth > \
            measured.node.gpus[0].peak_bandwidth
        assert "unmeasured" in variant.notes
        variant.node.validate()

    def test_variant_not_in_registry(self):
        from repro.machines.registry import machine_names

        assert "perlmutter-80gb" not in machine_names()

    def test_variant_measures_faster(self):
        from repro.benchmarks.babelstream.sweep import best_gpu_bandwidth
        from repro.machines.doe_gpu import build_perlmutter_80gb
        from repro.machines.registry import get_machine

        variant = best_gpu_bandwidth(build_perlmutter_80gb(), runs=2)
        measured = best_gpu_bandwidth(get_machine("perlmutter"), runs=2)
        assert variant.mean > 1.2 * measured.mean
