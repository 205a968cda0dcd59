import multiprocessing

import pytest

from uavlink import harness, learn, schedule
from uavlink.geometry import Scenario
from uavlink.pso import PsoConfig


class _SerialPool:
    """Stands in for ``multiprocessing.Pool``: records its size and maps
    in this process."""

    def __init__(self, sizes: list, processes: int):
        sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, blocks, chunksize):
        assert chunksize == 1
        return map(fn, blocks)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The size of every pool opened, with no process started."""
    sizes = []
    monkeypatch.setattr(multiprocessing, "Pool",
                        lambda processes: _SerialPool(sizes, processes))
    return sizes


@pytest.mark.parametrize("swarms, workers, blocks", [
    (5, 1, [range(0, 6), range(6, 7)]),         # 32 // 5 = 6 per block
    (5, 2, [range(0, 4), range(4, 7)]),         # at most ceil(7 / 2)
    (15, 1, [range(0, 2), range(2, 4), range(4, 6), range(6, 7)]),
    (40, 1, [range(i, i + 1) for i in range(7)]),
    (0, 1, [range(i, i + 1) for i in range(7)]),    # no swarms to stack
])
def test_blocks_hold_a_stacked_solve_of_indices(pool_sizes, swarms, workers,
                                                blocks):
    assert list(schedule.map_blocks(lambda block: block, range(7), swarms,
                                    workers)) == blocks


def test_pool_starts_no_more_processes_than_blocks(pool_sizes, tmp_path):
    def spec(realizations):
        return harness.ExperimentSpec(schemes=["fl_eqpa"], p_t_dbm=[20.0],
                                      realizations=realizations, workers=64)
    harness.run(spec(2))
    assert pool_sizes == [2]
    harness.run(spec(1))        # one block needs no pool
    assert pool_sizes == [2]
    learn.generate_dataset(Scenario(), 3, 1, str(tmp_path / "rows.jsonl"),
                           PsoConfig(particles=4, iterations=3), workers=64)
    assert pool_sizes == [2, 3]
