"""Study harness: CLI, paper-value comparison, report generation.

The paper's published numbers live in :mod:`.paper_values` and are used
**only** to compare against the simulation's output (they feed nothing
back into the models).
"""
