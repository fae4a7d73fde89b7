"""Fig. 10-style overhead benchmark: joint-round cost, union vs sharded dispatch.

Opens the ROADMAP sharded-controller item with numbers: as co-located tenants are
added, the union matching's solved matrix grows with the tenant count squared while
per-model sharded dispatch keeps each block constant — and on uncontended rounds both
commit identical per-model matchings (asserted inside the driver before timing).
Only the cell counts are recorded under ``results/``; the per-round wall times and
their ratio are printed, so running the benchmark leaves the tree unchanged.
"""

import pytest

from repro.analysis.sharding import cell_columns, fig10_sharded_round_cost


@pytest.mark.smoke
def test_fig10_sharded_round_cost(record_figure):
    timed = {}

    def driver(**kwargs):
        timed["table"] = fig10_sharded_round_cost(**kwargs)
        return cell_columns(timed["table"])

    table = record_figure(
        driver,
        "fig10_sharded_rounds.txt",
        max_models=4,
        queries_per_model=14,
        min_seconds=0.08,
    )
    print(timed["table"].format())
    headers = list(table.headers)
    union_cells = table.column("union_cells")
    sharded_cells = table.column("sharded_cells")
    models = table.column("models")

    # With one tenant the union IS the single block: identical work.
    assert union_cells[0] == sharded_cells[0]
    for n, u_cells, s_cells in zip(models[1:], union_cells[1:], sharded_cells[1:]):
        # The union matrix covers every (query, instance) pair across tenants; the
        # sharded blocks only same-model pairs — n-fold fewer cells at n tenants.
        assert u_cells == n * s_cells
        assert s_cells < u_cells
    # Union work grows quadratically with the tenant count (m and n both scale).
    assert union_cells[-1] == models[-1] ** 2 * union_cells[0]
    # Sharded work grows linearly: per-model blocks are constant-sized.
    assert sharded_cells[-1] == models[-1] * sharded_cells[0]
