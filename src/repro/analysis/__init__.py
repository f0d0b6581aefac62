"""Analysis and presentation utilities: table layout
(:mod:`.format`), error metrics (:mod:`.metrics`) and utilization
summaries (:mod:`.utilization`).  Import from the submodules; this
package imports none of them.
"""
