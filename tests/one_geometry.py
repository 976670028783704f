"""One geometry's Monte Carlo result, its trial stacks run in this process."""

from cfofdm import harness


def run_one_geometry(cfg, setup, geometry_index):
    """``harness.run_geometry`` of geometry ``geometry_index`` alone, with the
    stacks of one worker, the calling process."""
    geometries = range(geometry_index, geometry_index + 1)
    with harness._Workers(cfg, setup, geometries, 1) as workers:
        return harness.run_geometry(cfg, setup, geometry_index, workers)
