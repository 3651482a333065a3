import fractions
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from exchnet.dependence import BIDIRECTED, incidence_graph, kneser_graph
from exchnet.estimation import FitReport, exch_mle
from exchnet.genmodels import er_joint
from exchnet.graphs import LabeledNetwork, UnlabeledClass, class_from_key
from exchnet.mobius import ClassDistribution
from exchnet.serialize import (
    MAX_EXPONENT,
    _shipped_schema,
    class_distribution_to_json,
    decode_value,
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


def _outcome(parse, text):
    """(type, value) of what ``parse(text)`` returns, or (type, message) of
    what it raises."""
    try:
        value = parse(text)
    except Exception as err:
        return type(err), str(err)
    return type(value), value


# digits inside and outside ASCII, signs, decimals, exponents, separators
_TOKEN_CHARS = "0123456789/+-._eE ²٣x"


def _exponent_past_cap(text):
    """Whether ``Fraction`` reads text with an exponent past MAX_EXPONENT in
    magnitude, by the standard library's own pattern for its literals."""
    m = fractions._RATIONAL_FORMAT.match(text)
    try:
        return bool(m and m["exp"]) and abs(int(m["exp"])) > MAX_EXPONENT
    except ValueError:  # past int's digit limit: Fraction refuses it as fast
        return False


class TestDecodeValue:
    @given(
        st.one_of(
            st.text(_TOKEN_CHARS, max_size=10),
            st.from_regex(r"[0-9]{1,400}(/[0-9]{1,400})?", fullmatch=True),
        )
    )
    @example("²")
    @example("٣")
    @example("1_000")
    @example(" 1/2 ")
    @example("1 /2")
    @example("1/-2")
    @example("1/0")
    @example("0/0")
    @example("-3/4")
    @example("+3")
    @example("1.25")
    @example("1e-3")
    @example("1e400")
    @example("5/")
    @example("/5")
    @example("1" + "0" * 400)
    @example("1" + "0" * 400 + "/3")
    @example("1" * 5000)
    @example("1e4300")
    @example("0e-4300")
    @example("1e4301")
    @example("1e-4301")
    @example("0E1000000")
    @example("1e4000000")
    @example("1e999999999")
    @example("1e-1000000")
    @example("-2.5E-999_999_999 ")
    @example("1e" + "9" * 5000)
    @example("x1e999999999")
    @example("1e+٣٣٣٣٣")
    def test_agrees_with_fraction_of_the_string(self, text):
        """``decode_value`` returns what ``Fraction(text)`` returns, or
        raises its error: a ``ValueError`` as it is, a zero denominator and a
        value beyond float range as ``ValueError``s of their own.  A token
        that ``Fraction`` reads with an exponent past the cap is refused
        before ``Fraction`` builds the power of ten."""
        short = text if len(text) <= 24 else f"{text[:20]}..."
        if _exponent_past_cap(text):
            want = (
                ValueError,
                f"value {short} has an exponent past {MAX_EXPONENT} in magnitude",
            )
            assert _outcome(decode_value, text) == want
            return
        want = _outcome(Fraction, text)
        if want[0] is ZeroDivisionError:
            want = (ValueError, f"{text!r} has a zero denominator")
        elif _outcome(lambda t: float(Fraction(t)), text)[0] is OverflowError:
            want = (ValueError, f"value {short} is beyond float range")
        assert _outcome(decode_value, text) == want


class TestCaches:
    def test_a_loaded_schema_changed_by_its_caller_changes_no_validation(self):
        obj = joint_to_json(er_joint(2, Fraction(1, 3)))
        joint_from_json(obj)
        schema = load_schema("joint")
        schema["required"].append("mask_order")
        schema["properties"]["probs"]["type"] = "string"
        assert joint_from_json(obj).probs == er_joint(2, Fraction(1, 3)).probs
        assert load_schema("joint")["required"] == ["n", "probs"]

    def test_a_bad_class_key_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ValueError):
                class_from_key("1-2,2-x")
        assert class_from_key("2-3,1-2") == class_from_key("1-2,1-3")

    @pytest.mark.parametrize("cached", [_shipped_schema, class_from_key])
    def test_caches_are_bounded(self, cached):
        assert cached.cache_info().maxsize is not None
