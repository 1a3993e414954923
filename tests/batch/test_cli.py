"""CLI designs on the batched path compose with ``--jobs`` and ``--cache``."""

import io

from repro.cli import main


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


BASE = ["design", "--paper-ecommerce", "--app-tier-only",
        "--load", "1000", "--downtime", "100m"]


class TestDesignBatchFlag:
    def test_batch_composes_with_jobs_and_cache(self, tmp_path):
        serial = run(BASE)
        cold = run(BASE + ["--jobs", "2",
                           "--cache", str(tmp_path / "store")])
        warm = run(BASE + ["--jobs", "2",
                           "--cache", str(tmp_path / "store")])
        assert serial[0] == cold[0] == warm[0] == 0
        # Identical design, cost and downtime lines (the trailing
        # search-statistics and cache lines may differ).
        assert serial[1].splitlines()[:3] == cold[1].splitlines()[:3]
        assert serial[1].splitlines()[:3] == warm[1].splitlines()[:3]
