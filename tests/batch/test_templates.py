"""Chain templates replay the scalar explorer exactly.

The bit-identity contract starts here: a template's state order, edge
order and integer coefficients must match what the scalar solver's
exploration produces for the same shape, because the stacked assembly
replays the scalar float-operation sequence through those arrays.
These tests rebuild the scalar chain with
:class:`~repro.availability.ctmc.ContinuousTimeMarkovChain` and
compare structure element by element.
"""

import pytest

from repro.availability.ctmc import ContinuousTimeMarkovChain
from repro.batch import (TemplateCache, failover_template,
                         inplace_template)
from repro.batch.chains import (DENSE_LIMIT, KIND_FAILOVER, KIND_FAILURE,
                                KIND_REPAIR, KIND_SPARE,
                                _TRUNCATION_MARGIN)

#: Distinct primes so every (kind, coeff) product is unique -- a match
#: of edge rates then implies a match of both kind and coefficient.
RATES = {KIND_FAILURE: 2.0, KIND_SPARE: 3.0, KIND_FAILOVER: 5.0,
         KIND_REPAIR: 7.0}


def scalar_inplace_chain(n, crew, failure_rate, repair_rate):
    def transitions(r):
        out = []
        if r < n:
            out.append((r + 1, (n - r) * failure_rate))
        if r > 0:
            out.append((r - 1, min(r, crew) * repair_rate))
        return out
    return ContinuousTimeMarkovChain(0, transitions)


def scalar_failover_chain(n, m, s, crew, failure_rate, spare_rate,
                          failover_rate, repair_rate):
    total = n + s
    w_cap = min(n, (n - m + 1) + s + _TRUNCATION_MARGIN)

    def transitions(state):
        r, w = state
        idle = s - r + w
        manned = n - w
        out = []
        if manned > 0 and r < total and w < w_cap:
            out.append(((r + 1, w + 1), manned * failure_rate))
        if spare_rate > 0.0 and idle > 0:
            out.append(((r + 1, w), idle * spare_rate))
        in_failover = min(w, idle)
        if in_failover > 0:
            out.append(((r, w - 1), in_failover * failover_rate))
        if r > 0:
            out.append(((r - 1, w), min(r, crew) * repair_rate))
        return out

    return ContinuousTimeMarkovChain((0, 0), transitions)


def template_edges(template):
    """The template's (origin, target, kind, coeff) edges, in emission
    order, rebuilt from its assembly arrays."""
    return [(int(o), int(t), int(k), int(c)) for o, t, k, c in zip(
        template.edge_origin, template.edge_target, template.edge_kind,
        template.edge_coeff)]


def template_edge_rates(template):
    """The template's (origin, target, rate) triples in emission order."""
    return [(o, t, RATES[k] * float(c))
            for o, t, k, c in template_edges(template)]


class TestInplaceTemplate:
    @pytest.mark.parametrize("n,crew", [(1, 1), (3, 3), (5, 2), (8, 1)])
    def test_edges_match_scalar_exploration(self, n, crew):
        template = inplace_template(n, m=1, crew=crew)
        chain = scalar_inplace_chain(n, crew, RATES[KIND_FAILURE],
                                     RATES[KIND_REPAIR])
        assert template.size == chain.size
        assert template_edge_rates(template) == chain.edges

    @pytest.mark.parametrize("n,m", [(3, 1), (3, 2), (4, 4)])
    def test_down_states_and_flux(self, n, m):
        template = inplace_template(n, m, crew=n)
        # State r has n - r manned slots; down while n - r < m.
        assert list(template.down_index) == \
            [r for r in range(n + 1) if n - r < m]
        assert list(template.flux_manned) == \
            [n - r for r in range(n + 1)]
        assert not template.flux_idle.any()


class TestFailoverTemplate:
    @pytest.mark.parametrize("n,m,s,crew,susceptible", [
        (1, 1, 1, 2, False),
        (3, 2, 1, 4, False),
        (3, 2, 2, 5, True),
        (5, 3, 2, 1, True),
        (2, 1, 3, 5, False),
    ])
    def test_edges_match_scalar_exploration(self, n, m, s, crew,
                                            susceptible):
        template = failover_template(n, m, s, crew, susceptible)
        spare_rate = RATES[KIND_SPARE] if susceptible else 0.0
        chain = scalar_failover_chain(
            n, m, s, crew, RATES[KIND_FAILURE], spare_rate,
            RATES[KIND_FAILOVER], RATES[KIND_REPAIR])
        assert template.size == chain.size
        assert template_edge_rates(template) == chain.edges

    def test_down_states_follow_state_discovery_order(self):
        n, m, s, crew = 3, 2, 2, 5
        template = failover_template(n, m, s, crew, True)
        chain = scalar_failover_chain(
            n, m, s, crew, RATES[KIND_FAILURE], RATES[KIND_SPARE],
            RATES[KIND_FAILOVER], RATES[KIND_REPAIR])
        expected_down = [i for i, (_, w) in enumerate(chain.states)
                         if n - w < m]
        assert list(template.down_index) == expected_down
        assert list(template.flux_manned) == \
            [n - w for (_, w) in chain.states]
        assert list(template.flux_idle) == \
            [s - r + w for (r, w) in chain.states]

    def test_susceptibility_changes_the_shape(self):
        """Spare-susceptible chains emit extra idle-failure edges, so
        susceptibility is part of the shape key, not a rate."""
        base = failover_template(3, 2, 2, 5, False)
        susceptible = failover_template(3, 2, 2, 5, True)
        assert len(template_edges(susceptible)) > \
            len(template_edges(base))
        assert KIND_SPARE in susceptible.edge_kind
        assert KIND_SPARE not in base.edge_kind


class TestTemplateCache:
    def test_memoizes_by_shape_key(self):
        cache = TemplateCache()
        first = cache.get(("inplace", 3, 2, 3))
        again = cache.get(("inplace", 3, 2, 3))
        other = cache.get(("failover", 3, 2, 1, 4, False))
        assert again is first
        assert other is not first
        assert other.kind == "failover"
        assert len(cache) == 2

    def test_dense_limit_mirrors_the_scalar_solver(self):
        from repro.availability.ctmc import _DENSE_LIMIT
        assert DENSE_LIMIT == _DENSE_LIMIT
