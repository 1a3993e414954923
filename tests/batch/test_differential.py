"""Search-level differential test: default search == scalar reference.

Every Markov search solves its candidates in batched wavefronts
(:mod:`repro.batch`).  The scalar reference runs the same searches on
:class:`~tests.reference.ScalarMarkovEngine`, which the exact-type
batch gate keeps on the per-candidate path, and the serialized results
must be identical byte for byte on:

* the nine e-commerce requirement points of the benchmark grid, from
  the example spec files (the 10 min/yr row is infeasible on both
  paths);
* the Fig. 6 application-tier frontiers at the requirement-map loads;
* the scientific job search (Table 1's second row).
"""

import json
import os

import pytest

from repro.availability import MarkovEngine
from repro.core import Aved, DesignEvaluator, SearchLimits, TierSearch
from repro.core.serialize import (evaluated_tier_design_to_dict,
                                  evaluation_to_dict)
from repro.errors import InfeasibleError
from repro.model import JobRequirements, ServiceRequirements
from repro.spec import FileResolver, parse_infrastructure, parse_service
from repro.units import Duration

from ..reference import ScalarMarkovEngine

SPECS = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                     "examples", "specs")
GRID = [(load, minutes) for load in (400, 1000, 2000)
        for minutes in (10, 100, 1000)]
FIG6_LOADS = (400, 800, 1400, 1600, 2400, 3200, 4000, 5000)
ENGINES = {"batched": MarkovEngine, "scalar": ScalarMarkovEngine}


@pytest.fixture(scope="module")
def spec_pair():
    with open(os.path.join(SPECS, "paper.infra")) as handle:
        infrastructure = parse_infrastructure(handle.read())
    with open(os.path.join(SPECS, "ecommerce.service")) as handle:
        service = parse_service(handle.read(), FileResolver(SPECS))
    return infrastructure, service


def design_json(infrastructure, service, engine, requirements,
                limits=None):
    """The serialized design, or None when infeasible."""
    try:
        outcome = Aved(infrastructure, service, availability_engine=engine,
                       limits=limits).design(requirements)
    except InfeasibleError:
        return None
    return json.dumps(evaluation_to_dict(outcome.evaluation),
                      sort_keys=True)


@pytest.mark.parametrize("load,minutes", GRID)
def test_ecommerce_grid_point(spec_pair, load, minutes):
    requirements = ServiceRequirements(load, Duration.minutes(minutes))
    results = {name: design_json(*spec_pair, engine(), requirements)
               for name, engine in ENGINES.items()}
    assert results["batched"] == results["scalar"]
    assert (results["batched"] is None) == (minutes == 10)


def test_fig6_app_tier_frontiers(paper_infra, app_tier_service):
    def frontiers(engine):
        evaluator = DesignEvaluator(paper_infra, app_tier_service, engine)
        search = TierSearch(evaluator)
        return json.dumps(
            {str(load): [evaluated_tier_design_to_dict(entry)
                         for entry in search.tier_frontier("application",
                                                           load)]
             for load in FIG6_LOADS}, sort_keys=True)

    assert frontiers(MarkovEngine()) == frontiers(ScalarMarkovEngine())


def test_scientific_job_search(paper_infra, scientific):
    requirements = JobRequirements(Duration.hours(20))
    limits = SearchLimits(max_redundancy=4)
    results = {name: design_json(paper_infra, scientific, engine(),
                                 requirements, limits)
               for name, engine in ENGINES.items()}
    assert results["batched"] is not None
    assert results["batched"] == results["scalar"]
