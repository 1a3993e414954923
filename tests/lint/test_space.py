"""The static candidate-space analyzer (:mod:`repro.lint.space`).

Covers the AVD500-series diagnostics, the exact cardinality count, the
certificate structure (probe choice, regime guard), and the strict
exit code.  Certificates feed only the static coverage report
(``AVD505``); no search consumes them.
"""

import pytest

from repro.core import SearchLimits
from repro.lint import analyze_space, build_pruning_certificate
from repro.model import (AvailabilityMechanism, ComponentSlot, ComponentType,
                         CostSchedule, ExpressionPerformance, FailureMode,
                         FailureScope, InfrastructureModel, MechanismParameter,
                         MechanismRef, ResourceOption, ResourceType,
                         ServiceModel, Sizing, TableEffect, Tier)
from repro.units import ArithmeticRange, Duration, EnumeratedRange


def codes(report):
    return [diagnostic.code for diagnostic in report.report]


def build_infra(levels):
    """One-resource infrastructure whose contract mttr table is ``levels``."""
    contract = AvailabilityMechanism(
        "contract",
        parameters=(MechanismParameter(
            "level", EnumeratedRange([name for name, _ in levels])),),
        effects={
            "cost": TableEffect(
                "level", tuple((name, 100.0 * (index + 1))
                               for index, (name, _) in enumerate(levels))),
            "mttr": TableEffect("level", tuple(levels)),
        })
    box = ComponentType(
        "box",
        cost=CostSchedule(inactive=500.0, active=1000.0),
        failure_modes=(
            FailureMode("hard", Duration.days(365),
                        MechanismRef("contract"),
                        detect_time=Duration.minutes(1)),
            FailureMode("glitch", Duration.days(30), Duration.ZERO),
        ))
    resource = ResourceType(
        "node",
        slots=(ComponentSlot("box", None, Duration.minutes(1)),),
        reconfig_time=Duration.seconds(30))
    return InfrastructureModel(components=[box], mechanisms=[contract],
                               resources=[resource])


def build_service():
    option = ResourceOption(
        "node", Sizing.DYNAMIC, FailureScope.RESOURCE,
        ArithmeticRange(1, 100, 1),
        ExpressionPerformance("100*n"))
    return ServiceModel("svc", [Tier("web", [option])])


@pytest.fixture
def infra():
    return build_infra([("basic", Duration.hours(24)),
                        ("fast", Duration.hours(4))])


@pytest.fixture
def service():
    return build_service()


class TestCardinality:
    def test_exact_structure_count(self, infra, service):
        # load 150 -> n_min=2; totals 2 and 3 give the (n,s) splits
        # (2,0), (2,1), (3,0); times 2 contract levels = 6 structures.
        report = analyze_space(infra, service,
                               limits=SearchLimits(max_redundancy=1),
                               load=150.0)
        assert report.structures == 6
        assert "AVD500" in codes(report)
        tier = report.tiers[0]
        assert tier.tier == "web"
        assert tier.options[0].n_min == 2
        assert tier.options[0].combos == 2
        classes = tier.equivalence_classes()
        assert classes is not None and classes <= report.structures

    def test_no_load_uses_smallest_declared_sizing(self, infra, service):
        report = analyze_space(infra, service,
                               limits=SearchLimits(max_redundancy=0))
        assert report.tiers[0].options[0].n_min == 1
        assert report.structures == 2  # (1,0) x 2 levels

    def test_empty_space_is_an_error(self, infra, service):
        report = analyze_space(infra, service, load=2e6)
        assert "AVD501" in codes(report)
        assert report.structures == 0
        assert report.exit_code() == 1

    def test_report_shapes(self, infra, service):
        report = analyze_space(infra, service, load=150.0,
                               max_downtime=Duration.minutes(30))
        data = report.to_dict()
        assert data["structures"] == report.structures
        assert data["load"] == 150.0
        assert data["max_downtime_minutes"] == 30.0
        assert data["tiers"][0]["options"][0]["resource"] == "node"
        text = report.to_text()
        assert "candidate space" in text and "tier web" in text


class TestFeasibilityDiagnostics:
    def test_infeasible_zero_redundancy_region_warns(self, infra, service):
        # Even the fastest contract leaves ~4h repairs on a 365d MTBF:
        # a redundancy-free tier provably exceeds a 30 min/yr budget.
        report = analyze_space(infra, service, load=150.0,
                               max_downtime=Duration.minutes(30))
        assert "AVD502" in codes(report)
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 1

    def test_generous_target_does_not_warn(self, infra, service):
        report = analyze_space(infra, service, load=150.0,
                               max_downtime=Duration.hours(200))
        assert "AVD502" not in codes(report)

    def test_redundant_dimension_warns(self, service):
        same = build_infra([("basic", Duration.hours(24)),
                            ("premium", Duration.hours(24))])
        report = analyze_space(same, service, load=150.0)
        assert "AVD503" in codes(report)

    def test_contradictory_fixed_settings_error(self, infra, service):
        limits = SearchLimits(
            fixed_settings={"contract": {"level": "gold"}})
        report = analyze_space(infra, service, limits=limits, load=150.0)
        assert "AVD507" in codes(report)
        assert report.exit_code() == 1

    def test_coverage_diagnostics_present(self, infra, service):
        report = analyze_space(infra, service, load=150.0)
        assert "AVD504" in codes(report)
        assert "AVD505" in codes(report)
        assert report.dominance_covered > 0


class TestCertificates:
    def test_probe_is_the_pointwise_minimal_combo(self, infra, service):
        report = analyze_space(infra, service, load=150.0)
        certificates = report.certificates()
        certificate = certificates["web"]["node"]
        assert certificate.combo_count == 2
        group = certificate.group_for(False, ())
        assert group is not None
        # "fast" (4h) dominates "basic" (24h): one probe, one dominated.
        probe = certificate.combo_keys[group.least_index]
        assert probe in certificate.combo_keys
        assert len(group.dominated) == 1
        assert group.least_index not in group.dominated
        assert group.lemma == "mttr-monotone/in-place"

    def test_spare_group_has_its_own_lemma(self, infra, service):
        report = analyze_space(infra, service, load=150.0)
        certificate = report.certificates()["web"]["node"]
        group = certificate.group_for(True, ())
        assert group is not None
        assert group.lemma == "mttr-monotone/fixed-failover-regime"

    def test_regime_flip_blocks_spare_group_dominance(self, service):
        # failover ~= 32.5 min sits between the two contract MTTRs, so
        # "fast" repairs in place while "basic" fails over: different
        # model structure, no provable order with spares -- but the
        # in-place group is untouched by the failover rule.
        flip = build_infra([("basic", Duration.hours(24)),
                            ("fast", Duration.minutes(5))])
        flip = InfrastructureModel(
            components=list(flip.components),
            mechanisms=list(flip.mechanisms),
            resources=[ResourceType(
                "node",
                slots=(ComponentSlot("box", None, Duration.minutes(1)),),
                reconfig_time=Duration.minutes(30))])
        report = analyze_space(flip, service, load=150.0)
        certificate = report.certificates()["web"]["node"]
        assert certificate.group_for(False, ()) is not None
        assert certificate.group_for(True, ()) is None

    def test_trivial_combo_dimension_has_no_certificate(self, service):
        single = build_infra([("only", Duration.hours(8))])
        report = analyze_space(single, service, load=150.0)
        assert report.certificates() == {}

    def test_build_certificate_needs_two_combos(self, infra, service):
        from repro.core import DesignEvaluator
        evaluator = DesignEvaluator(infra, service)
        option = service.tiers[0].options[0]
        assert build_pruning_certificate(evaluator, "web", option,
                                         [()], [()]) is None
