import json
from fractions import Fraction

import pytest

from exchnet.dependence import BIDIRECTED, incidence_graph, kneser_graph
from exchnet.estimation import ClassDistribution, FitReport, exch_mle
from exchnet.genmodels import er_joint
from exchnet.graphs import LabeledNetwork, UnlabeledClass
from exchnet.serialize import (
    class_distribution_to_json,
    depgraph_from_json,
    depgraph_to_json,
    dump_json,
    fit_report_to_json,
    joint_from_json,
    joint_to_json,
    load_schema,
    mobius_from_json,
    mobius_to_json,
    validate_against_schema,
)


class TestRoundTrips:
    def test_mobius_rational(self, paw):
        mv = exch_mle(paw)
        assert mobius_from_json(mobius_to_json(mv)) == mv

    def test_mobius_float(self, paw):
        mv = exch_mle(paw).to_float()
        back = mobius_from_json(mobius_to_json(mv))
        assert all(abs(back.z[u] - v) < 1e-15 for u, v in mv.z.items())

    def test_joint(self):
        jt = er_joint(3, Fraction(1, 3))
        assert joint_from_json(joint_to_json(jt)).probs == jt.probs

    def test_depgraph(self):
        for dep in (incidence_graph(4), kneser_graph(5, BIDIRECTED)):
            back = depgraph_from_json(depgraph_to_json(dep))
            assert back == dep

    def test_class_distribution(self, paw):
        cd = ClassDistribution(
            4,
            {
                UnlabeledClass.of(paw): Fraction(3, 4),
                UnlabeledClass.empty(): Fraction(1, 4),
            },
        )
        assert class_distribution_to_json(cd) == {
            "n": 4,
            "q": {
                UnlabeledClass.empty().key(): "1/4",
                UnlabeledClass.of(paw).key(): "3/4",
            },
        }

    def test_json_text_is_stable(self, paw):
        mv = exch_mle(paw)
        assert dump_json(mobius_to_json(mv)) == dump_json(mobius_to_json(mv))


class TestSchemas:
    def test_every_schema_loads(self):
        for name in (
            "zvector",
            "joint",
            "depgraph",
            "fitreport",
            "extendreport",
        ):
            schema = load_schema(name)
            assert schema["type"] == "object"

    def test_fit_report_with_infinite_loglik_serializes(self):
        # a failed fit carries -inf; JSON gets null
        rep = FitReport("dissociated", "failed", float("-inf"))
        obj = fit_report_to_json(rep)
        assert obj["loglik"] is None
        json.dumps(obj, allow_nan=False)
        assert validate_against_schema(obj, load_schema("fitreport")) == []

    def test_boundary_fit_report_has_finite_loglik(self):
        # the empty network is the whole face of its edge count
        from exchnet.estimation import ErgmSpec, ergm_fit

        rep = ergm_fit(ErgmSpec("edges", 4), LabeledNetwork.empty(4))
        assert rep.status == "boundary"
        obj = fit_report_to_json(rep)
        assert obj["loglik"] == 0.0
        assert validate_against_schema(obj, load_schema("fitreport")) == []

    def test_validator_reports_violations(self):
        schema = load_schema("zvector")
        assert validate_against_schema({"n": "four", "z": []}, schema)
        assert validate_against_schema({"z": []}, schema)
        assert validate_against_schema({"n": 4, "z": [{"class": 3}]}, schema)


class TestRefusals:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_are_not_written(self, value):
        with pytest.raises(ValueError):
            dump_json({"probability": value})
