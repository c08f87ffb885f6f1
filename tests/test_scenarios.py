"""Scenario schema: strict validation, rational values, bundled setups."""

import copy
import json
import math
import os
import string
import subprocess
import sys
import textwrap
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ditherseek import (ProbeConfig, ScenarioError, assemble_rhs, build_lie_bracket_system,
                        bundled_scenario, list_bundled, load_scenario, parse_scenario,
                        parse_scenario_text)
from ditherseek.cli import RunConfig, _resolved, main
from ditherseek import scenarios
from ditherseek.scenarios import MAX_FLOW_DEPTH
from ditherseek.sim import MAX_BOUNDARY_SAMPLES

MINIMAL_AGENT = """
name: mini
dynamics: single_integrator
map:
  quadratic: {q_diag: [1.0, 1.0], xstar: [0.0, 0.0]}
agents:
  - {c: 0.3, alpha: 1.0, h: 1.0, a: "1"}
omega: [10.0, 100.0]
initial_state: [1.0, 1.0, 0.0]
horizon: 5.0
"""


def test_bundled_scenarios_present():
    names = list_bundled()
    assert "scalar_basic" in names
    assert "three_agent_single_integrator" in names
    assert "three_agent_unicycle" in names


def test_bundled_single_integrator_matches_benchmark_parameters():
    sc = bundled_scenario("three_agent_single_integrator")
    assert sc.kind == "single_integrator"
    assert [float(p.c) for p in sc.params] == [0.3, 0.3, 0.3]
    assert [p.alpha for p in sc.params] == [1.0, 1.0, 1.0]
    assert [p.h for p in sc.params] == [1.0, 1.0, 1.0]
    assert [p.a for p in sc.params] == [Fraction(1), Fraction(2), Fraction(3)]
    assert np.allclose(sc.x0, [2, -2, -2, 2, -1, 2.5, 0, 0, 0])
    assert sc.omegas == (10.0, 100.0)
    sys = sc.build_system(100.0)
    assert sys.dim == 9
    assert np.allclose(sc.target[:6], [1, 1, -1, -1, -1, 1])


def test_bundled_unicycle_rates():
    sc = bundled_scenario("three_agent_unicycle")
    assert sc.Omega == 1.0
    assert [p.d for p in sc.params] == [Fraction(1), Fraction(2), Fraction(3)]
    lie = sc.lie_field()
    z = np.zeros(9)
    assert np.all(np.isfinite(lie(0.3, z)))


def test_bundled_scalar_builds():
    sc = bundled_scenario("scalar_basic")
    assert sc.kind == "scalar"
    assert sc.alpha == 1.0
    assert sc.dithers[0].name == "cosine:1"
    lie = sc.lie_field()
    # averaged flow of the scalar loop: (alpha/2) grad f = (1 - z)
    for z in (-2.0, 0.0, 3.0):
        assert lie(0.0, np.array([z]))[0] == pytest.approx(1.0 - z, abs=1e-12)


def test_minimal_scenario_parses():
    sc = parse_scenario_text(MINIMAL_AGENT)
    assert sc.name == "mini"
    assert sc.build_system(10.0).dim == 3


def test_unknown_top_level_key_rejected():
    bad = MINIMAL_AGENT + "horizonn: 3.0\n"
    with pytest.raises(ScenarioError, match="horizonn"):
        parse_scenario_text(bad)


def test_unknown_key_accepted_without_strict():
    bad = MINIMAL_AGENT + "extra_note: hello\n"
    sc = parse_scenario_text(bad, strict=False)
    assert sc.name == "mini"


def test_unknown_agent_key_rejected():
    bad = MINIMAL_AGENT.replace('a: "1"}', 'a: "1", gain: 2}')
    with pytest.raises(ScenarioError, match="gain"):
        parse_scenario_text(bad)


def test_missing_required_key_rejected():
    bad = MINIMAL_AGENT.replace("horizon: 5.0", "")
    with pytest.raises(ScenarioError, match="horizon"):
        parse_scenario_text(bad)


def test_yaml_syntax_error_reports_line():
    bad = "name: x\ndynamics: [unclosed\n"
    with pytest.raises(ScenarioError, match="line"):
        parse_scenario_text(bad)


def test_rational_strings_parsed_exactly():
    text = MINIMAL_AGENT.replace('a: "1"', 'a: "3/7"').replace("c: 0.3", 'c: "3/10"')
    sc = parse_scenario_text(text)
    assert sc.params[0].a == Fraction(3, 7)
    assert sc.params[0].c == pytest.approx(0.3)


def test_float_frequency_ratio_rejected():
    bad = MINIMAL_AGENT.replace('a: "1"', "a: 0.5")
    with pytest.raises(ScenarioError, match="integers or 'p/q'"):
        parse_scenario_text(bad)


def test_omega_list_must_increase():
    bad = MINIMAL_AGENT.replace("omega: [10.0, 100.0]", "omega: [100.0, 10.0]")
    with pytest.raises(ScenarioError, match="increasing"):
        parse_scenario_text(bad)


@pytest.mark.parametrize("value", ["0", "-1", "2.5", "foo"])
def test_probe_boundary_samples_must_be_a_positive_integer(value):
    text = MINIMAL_AGENT + (
        f"probe: {{delta: [0.1], epsilon: 0.5, t_f: 1.0, boundary_samples: {value}}}\n")
    with pytest.raises(ScenarioError, match="boundary_samples"):
        parse_scenario_text(text)


@pytest.mark.parametrize("value", [MAX_BOUNDARY_SAMPLES + 1, 10**9])
def test_probe_boundary_samples_are_bounded_from_above(value):
    def text(samples):
        return MINIMAL_AGENT + (
            f"probe: {{delta: [0.1], epsilon: 0.5, t_f: 1.0, boundary_samples: {samples}}}\n")

    largest = parse_scenario_text(text(MAX_BOUNDARY_SAMPLES))
    assert largest.probe.boundary_samples == MAX_BOUNDARY_SAMPLES
    with pytest.raises(ScenarioError, match="boundary_samples.*4,096"):
        parse_scenario_text(text(value))


def test_nonpositive_horizon_rejected():
    bad = MINIMAL_AGENT.replace("horizon: 5.0", "horizon: 0.0")
    with pytest.raises(ScenarioError, match="positive"):
        parse_scenario_text(bad)


def test_initial_state_length_checked():
    bad = MINIMAL_AGENT.replace("[1.0, 1.0, 0.0]", "[1.0, 1.0]")
    with pytest.raises(ScenarioError, match="length 3"):
        parse_scenario_text(bad)


def test_duplicate_ratios_rejected_at_parse_time():
    text = textwrap.dedent("""
    name: dup
    dynamics: single_integrator
    map:
      quadratic: {q_diag: [1, 1, 1, 1], xstar: [0, 0, 0, 0]}
    agents:
      - {c: 0.3, alpha: 1.0, h: 1.0, a: "2"}
      - {c: 0.3, alpha: 1.0, h: 1.0, a: "2"}
    omega: [10.0]
    initial_state: [0, 0, 0, 0, 0, 0]
    horizon: 1.0
    """)
    with pytest.raises(ScenarioError, match="distinct"):
        parse_scenario_text(text)


def test_unicycle_requires_Omega_and_d():
    text = MINIMAL_AGENT.replace("single_integrator", "unicycle")
    with pytest.raises(ScenarioError, match="Omega"):
        parse_scenario_text(text)
    text = text.replace("dynamics: unicycle", "dynamics: unicycle\nOmega: 1.0")
    with pytest.raises(ScenarioError, match="angular-rate"):
        parse_scenario_text(text)


def test_scalar_rejects_agent_keys():
    text = textwrap.dedent("""
    name: bad_scalar
    dynamics: scalar
    map:
      quadratic1d: {xstar: 1.0}
    alpha: 1.0
    Omega: 2.0
    omega: [10.0]
    initial_state: [0.0]
    horizon: 1.0
    """)
    with pytest.raises(ScenarioError, match="not applicable"):
        parse_scenario_text(text)


def test_nu_method_quadrature_roundtrip():
    text = MINIMAL_AGENT + "nu_method: quadrature:8192\n"
    sc = parse_scenario_text(text)
    assert sc.nu_method == "quadrature:8192"
    z = np.zeros(3)
    assert np.all(np.isfinite(sc.generic_lie_field()(0.0, z)))


@pytest.mark.parametrize("value", ["quadrature:abc", "quadrature:4", "quadrature:",
                                   "simpson", "closed_form:8", "quadrature:1048577",
                                   "quadrature:100000000000",
                                   # int() reads these as 1,000 and 64 nodes
                                   "quadrature:1_000", "quadrature:+64", "quadrature: 64",
                                   "quadrature:\u0666\u0664"])
def test_nu_method_rejected_at_load_time(value):
    with pytest.raises(ScenarioError, match="nu_method"):
        parse_scenario_text(MINIMAL_AGENT + f'nu_method: "{value}"\n')


def test_nu_method_at_the_node_bound_loads():
    sc = parse_scenario_text(MINIMAL_AGENT + 'nu_method: "quadrature:1048576"\n')
    assert sc.nu_method == "quadrature:1048576"


@pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", "..", ""])
def test_name_must_be_a_plain_file_stem(name):
    doc = {**yaml.safe_load(MINIMAL_AGENT), "name": name}
    with pytest.raises(ScenarioError, match="scenario.name"):
        parse_scenario(doc)


SCALAR_DOC = yaml.safe_load(
    resources.files("ditherseek").joinpath("data", "scalar_basic.yaml").read_text("utf-8"))


@pytest.mark.parametrize("nu_method,nodes", [("closed_form", 4096), ("quadrature", 4096),
                                             ("quadrature:8", 8), ("quadrature:30", 30)])
def test_scalar_averaged_field_keeps_the_nu_node_count(nu_method, nodes):
    # a square dither has no closed form: closed_form falls back to the
    # default quadrature, and an explicit node count is kept
    doc = {**SCALAR_DOC, "dither": ["cosine:1", "square:1"], "nu_method": nu_method}
    sc = parse_scenario_text(yaml.safe_dump(doc))
    sys = sc.build_system(sc.omegas[0])
    z = np.array([0.3])
    got = sc.lie_field()(0.0, z)
    assert np.array_equal(got, build_lie_bracket_system(sys, f"quadrature:{nodes}")(0.0, z))
    fine = build_lie_bracket_system(sys, "quadrature")(0.0, z)
    assert np.array_equal(got, fine) == (nodes == 4096)


@given(key=st.sampled_from(["nu_method", "name"]),
       value=st.one_of(st.text(), st.sampled_from(["closed_form", "quadrature", ".."]),
                       st.integers(-20, 4096).map("quadrature:{}".format)),
       raw=st.booleans())
@settings(max_examples=300, deadline=None)
def test_any_nu_method_or_name_loads_or_raises_scenario_error(key, value, raw):
    # raw: the string is pasted into the YAML text, so YAML may read it as
    # another type, a syntax error or extra keys; else it stays a string
    if raw:
        text = yaml.safe_dump({k: v for k, v in SCALAR_DOC.items() if k != key})
        text += f"{key}: {value}\n"
    else:
        text = yaml.safe_dump({**SCALAR_DOC, key: value})
    try:
        parse_scenario_text(text).lie_field()
    except ScenarioError:
        pass


UNICYCLE_DOC = yaml.safe_load(
    resources.files("ditherseek").joinpath("data", "three_agent_unicycle.yaml")
    .read_text("utf-8"))
AGENT_DOC = yaml.safe_load(MINIMAL_AGENT)

# (document, path of a numeric value) for every numeric key of the schema
NUMERIC_KEYS = [(SCALAR_DOC, path) for path in (
    ("horizon",), ("alpha",), ("amplitude_exponent",), ("omega", 0), ("omega", 2),
    ("initial_state", 0), ("map", "quadratic1d", "xstar"), ("map", "quadratic1d", "scale"),
    ("step", "max_step"), ("probe", "delta", 1), ("probe", "epsilon"), ("probe", "t_f"),
    ("probe", "horizon"))] + [(UNICYCLE_DOC, path) for path in (
    ("Omega",), ("initial_state", 4), ("agents", 1, "c"), ("agents", 1, "alpha"),
    ("agents", 1, "h"))] + [(AGENT_DOC, path) for path in (
    ("map", "quadratic", "q_diag", 1), ("map", "quadratic", "xstar", 0))]


def _with_value(doc, path, value):
    doc = copy.deepcopy(doc)
    *parents, last = path
    block = doc
    for key in parents:
        block = block[key]
    block[last] = value
    return doc


def _resolved_numbers(sc):
    numbers = [sc.horizon, *sc.omegas, *sc.x0, sc.policy.max_step, sc.amplitude_exponent]
    numbers += [v for v in (sc.alpha, sc.Omega) if v is not None]
    if sc.scalar_map is not None:
        numbers.append(sc.scalar_map.xstar)
    for p in sc.params:
        numbers += [p.c, p.alpha, p.h]
    if sc.probe is not None:
        numbers += [*sc.probe.deltas, sc.probe.epsilon, sc.probe.t_f,
                    sc.probe.horizon or 0.0]
    if sc.game is not None and sc.game.maximizer is not None:
        numbers += list(sc.game.maximizer)
    return numbers


@given(key=st.sampled_from(NUMERIC_KEYS), value=st.floats())
@settings(max_examples=300, deadline=None)
def test_any_number_loads_finite_or_raises_scenario_error(key, value):
    doc, path = key
    try:
        sc = parse_scenario_text(yaml.safe_dump(_with_value(doc, path, value)))
    except ScenarioError:
        return
    assert all(math.isfinite(v) for v in _resolved_numbers(sc))


def test_load_scenario_from_file(tmp_path):
    p = tmp_path / "mini.yaml"
    p.write_text(MINIMAL_AGENT, encoding="utf-8")
    sc = load_scenario(p)
    assert sc.name == "mini"


def _nested_omega(depth, flow=False):
    # an omega list nested ``depth`` deep, in block style ("- - - 100.0") or in
    # flow style ("[[[100.0]]]"); either way, past MAX_FLOW_DEPTH the parser's
    # event stream is refused before a document is built
    text = yaml.safe_dump({k: v for k, v in SCALAR_DOC.items() if k != "omega"})
    if flow:
        return (text + "omega: " + "[" * depth + "100.0" + "]" * depth + "\n").encode()
    return (text + "omega:\n" + "- " * depth + "100.0\n").encode()


@given(data=st.one_of(st.binary(), st.integers(1, 2000).map(_nested_omega),
                      st.integers(1, 2 * MAX_FLOW_DEPTH).map(
                          lambda depth: _nested_omega(depth, flow=True))))
@settings(max_examples=200, deadline=None)
def test_any_scenario_file_loads_or_raises_scenario_error(tmp_path_factory, data):
    # arbitrary bytes (often not UTF-8) and omega lists nested past what the
    # YAML parser can recurse through, or past the flow-depth bound
    path = tmp_path_factory.mktemp("fuzz") / "doc.yaml"
    path.write_bytes(data)
    try:
        load_scenario(path)
    except ScenarioError:
        pass


def test_flow_nesting_past_the_bound_is_refused_before_the_parser():
    # at the bound the parser runs and the schema refuses the nested list
    with pytest.raises(ScenarioError, match=r"^scenario\.omega\[0\]: expected a number"):
        parse_scenario_text(_nested_omega(MAX_FLOW_DEPTH, flow=True).decode())
    with pytest.raises(ScenarioError, match="^scenario syntax error: collections "
                                            f"nested more than {MAX_FLOW_DEPTH} deep$"):
        parse_scenario_text(_nested_omega(MAX_FLOW_DEPTH + 1, flow=True).decode())


def _with_description(entry):
    text = yaml.safe_dump({k: v for k, v in SCALAR_DOC.items() if k != "description"})
    return text + entry + "\n"


# scalars of unclosed brackets, which a scan of the text took for nesting
_UNCLOSED = {"plain_scalar": "description: unclosed " + "[" * (MAX_FLOW_DEPTH + 1),
             "block_scalar": "description: |\n  " + "{" * (MAX_FLOW_DEPTH + 1)}


@pytest.mark.parametrize("entry", [
    "description: '" + "[{" * 500 + "'",
    "description: 'it''s " + "[" * 500 + "'",
    'description: "a \\"quoted\\" ' + "[" * 500 + '"',
    "description: plain  # " + "[" * 500,
    *_UNCLOSED.values(),
], ids=["single_quoted", "single_quoted_escape", "double_quoted_escape", "comment",
        *_UNCLOSED])
def test_brackets_in_quoted_scalars_and_comments_are_not_nesting(entry):
    sc = parse_scenario_text(_with_description(entry))
    assert sc.description == yaml.safe_load(entry + "\n")["description"]


@pytest.mark.parametrize("entry", _UNCLOSED.values(), ids=_UNCLOSED)
def test_brackets_in_plain_and_block_scalars_are_not_nesting(tmp_path, capsys, entry):
    path = tmp_path / "scalar_basic.yaml"
    path.write_text(_with_description(entry), encoding="utf-8")
    assert main(["--scenario", str(path), "--mode", "verify", "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out.endswith("4/4 checks passed\n")


def _scalar_doc_with(entries, *replaced):
    text = yaml.safe_dump({k: v for k, v in SCALAR_DOC.items()
                           if k not in ("description",) + replaced})
    return text + entries


def _alias_chain(n, width):
    # anchors a0 ... a(n-1) in the description, each a list of ``width``
    # aliases to the one before: width 1 nests one level deeper per anchor,
    # width 2 doubles the expanded size per anchor
    chain = "".join(f"  - &a{i} [{', '.join([f'*a{i - 1}'] * width)}]\n" for i in range(1, n))
    return "description:\n  - &a0 [1]\n" + chain


def _merge_chain(n):
    # n mappings in a list, each "<<"-merging the one before it through an
    # alias, and the top-level mapping merging the last
    chain = "".join(f"  - &a{i} {{<<: *a{i - 1}}}\n" for i in range(1, n))
    return f"description:\n  - &a0 {{k: 0}}\n{chain}<<: *a{n - 1}\n"


def _refused_at(entries, line, column, *replaced):
    """The document and its one error line: ``line`` counts from the first of
    ``entries``, where the first anchor, alias or merge key is."""
    before = len(_scalar_doc_with("", *replaced).splitlines())
    return (_scalar_doc_with(entries, *replaced),
            f"error: scenario syntax error at line {before + line}, column {column}: "
            "anchors, aliases and merge keys are not supported\n")


# each refused at its first anchor, alias or merge key, before the loader
# could expand a chain 3,000 deep or of 98,303 nodes, or recurse through merges
ALIAS_CASES = {
    "anchor": _refused_at("description: &d plain\n", 1, 14),
    "alias": _refused_at("name: &n tiny\ndescription: *n\n", 1, 7, "name"),
    "undefined_alias": _refused_at("description: *nowhere\n", 1, 14),
    "merge_key": _refused_at("step: {<<: {samples_per_period: 40}}\n", 1, 8, "step"),
    "tagged_merge_key": _refused_at("description: !!merge <<\n", 1, 14),
    "deep_chain": _refused_at(_alias_chain(3000, 1) + "name: *a2999\n", 2, 5, "name"),
    "doubling_chain": _refused_at(_alias_chain(16, 2) + "map: {builtin: *a15}\n", 2, 5, "map"),
    "merge_chain": _refused_at(_merge_chain(3000), 2, 5),
    "self_merge": _refused_at("description: &m {<<: *m}\n", 1, 14),
}

_MAIN_ON_FILES = textwrap.dedent("""
    import contextlib, io, json, sys, yaml
    if sys.argv[1] == "pure":
        del yaml.CSafeLoader
    from ditherseek import scenarios
    from ditherseek.cli import main
    assert scenarios._LOADER is (yaml.SafeLoader if sys.argv[1] == "pure" else yaml.CSafeLoader)
    results = []
    for path in sys.argv[3:]:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            results.append([main(["--scenario", path, "--mode", "verify",
                                  "--out", sys.argv[2]]), err.getvalue()])
    print(json.dumps(results))
    """)


@pytest.mark.parametrize("loader", [
    pytest.param("libyaml", marks=pytest.mark.skipif(not yaml.__with_libyaml__,
                                                     reason="PyYAML built without libyaml")),
    "pure"])
def test_anchors_aliases_and_merge_keys_are_refused_under_either_loader(tmp_path, loader):
    paths = []
    for name, (text, _) in ALIAS_CASES.items():
        paths.append(tmp_path / f"{name}.yaml")
        paths[-1].write_text(text, encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src)] + sys.path))
    done = subprocess.run([sys.executable, "-c", _MAIN_ON_FILES, loader, str(tmp_path / "o"),
                           *map(str, paths)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)
    for (name, (_, line)), result in zip(ALIAS_CASES.items(), results):
        assert result == [2, line], name
    assert not (tmp_path / "o").exists()


def test_merge_keys_through_a_chain_of_aliases_end_in_an_error(tmp_path, capsys):
    # refused at the first anchor, before PyYAML's constructor could recurse
    # through the 3,000 merges
    text, line = ALIAS_CASES["merge_chain"]
    path = tmp_path / "merge_chain.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["--scenario", str(path), "--mode", "verify", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == line


# only a plain, untagged "<<" is a merge key, and "&" or "*" marks an anchor or
# alias only where a node starts; each of these is text
@pytest.mark.parametrize("written, description", [
    ('"<<"', "<<"),
    ("'<<'", "<<"),
    ("|\n  <<\n", "<<\n"),
    ("<<a", "<<a"),
    ('"!!merge <<"', "!!merge <<"),
    ('"&a *a"', "&a *a"),
    ("a & b * c", "a & b * c"),
], ids=["double_quoted_merge", "single_quoted_merge", "literal_merge", "merge_prefix",
        "quoted_merge_tag", "quoted_anchor_alias", "plain_ampersand_star"])
def test_text_that_only_looks_like_an_anchor_alias_or_merge_key_loads(written, description):
    sc = parse_scenario_text(_scalar_doc_with(f"description: {written}\n"))
    assert sc.description == description


@pytest.mark.parametrize("text, message", [
    (_scalar_doc_with("1: a\nfoo: b\n"), "scenario: unknown key(s) [1, 'foo']"),
    (MINIMAL_AGENT.replace('a: "1"}', 'a: "1", 2: 3, x: 4}'),
     "scenario.agents[0]: unknown key(s) [2, 'x']"),
], ids=["top_level", "agent_block"])
def test_keys_of_mixed_types_end_in_an_error(tmp_path, capsys, text, message):
    # the unknown keys are listed sorted by their text: 1 and "foo" do not compare
    path = tmp_path / "mixed.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["--scenario", str(path), "--mode", "verify", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}; allowed: ")


@given(description=st.lists(st.sampled_from(list(string.printable)
                                            + ["[" * (MAX_FLOW_DEPTH + 1),
                                               "{" * (MAX_FLOW_DEPTH + 1)])).map("".join))
@settings(max_examples=200, deadline=None)
def test_any_printable_description_loads_back(description):
    text = yaml.safe_dump({**SCALAR_DOC, "description": description})
    assert parse_scenario_text(text).description == description


def test_load_scenario_unknown_bundled_name():
    with pytest.raises(ScenarioError, match="unknown scenario"):
        load_scenario("no_such_scenario")


def test_generic_and_analytic_averaged_fields_agree_on_bundled():
    sc = bundled_scenario("three_agent_single_integrator")
    gen = sc.generic_lie_field()
    ana = sc.lie_field()
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = rng.uniform(-2, 2, 9)
        assert np.max(np.abs(gen(0.0, z) - ana(0.0, z))) < 1e-10


def test_amplitude_exponent_contrast_option():
    text = MINIMAL_AGENT + "amplitude_exponent: 1.0\n"
    sc = parse_scenario_text(text)
    sys = sc.build_system(10.0)
    assert sys.amplitude_exponent == 1.0
    # the dither term now scales like omega, not sqrt(omega)
    from ditherseek import assemble_rhs
    rhs = assemble_rhs(sys)
    base = assemble_rhs(parse_scenario_text(MINIMAL_AGENT).build_system(10.0))
    x = np.array([0.5, 0.5, 0.0])
    t = 0.11
    drift = sys.drift(t, x)
    assert np.allclose(rhs(t, x) - drift,
                       math.sqrt(10.0) * (base(t, x) - drift), atol=1e-12)
    # and no averaged counterpart exists for that scaling
    with pytest.raises(ScenarioError, match="averaged"):
        sc.lie_field()
    bad = MINIMAL_AGENT + "amplitude_exponent: 0.7\n"
    with pytest.raises(ScenarioError, match="0.5 or 1.0"):
        parse_scenario_text(bad)


# YAML scalars, including the rational strings and dither names the schema reads
SCALARS = (st.none() | st.booleans() | st.integers(-3, 12) | st.floats()
           | st.text(max_size=6)
           | st.sampled_from(["1/2", "3/10", "1/0", "-2", "1e400", "1/1e300", "cosine:1",
                              "sine:2", "square:1", "sawtooth:3", "triangle:0", "bogus:1"]))
ANY_VALUE = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6) | st.sampled_from(["c", "a", "d", "xstar"]),
                      inner, max_size=4), max_leaves=10)

# a valid value of each list or mapping key of the schema
TEMPLATES = {"agents": UNICYCLE_DOC["agents"], "probe": SCALAR_DOC["probe"],
             "step": SCALAR_DOC["step"], "dither": SCALAR_DOC["dither"],
             "map": AGENT_DOC["map"]}


def _mutated(data, value):
    """``value`` with one entry, at any depth, replaced, deleted or added."""
    if not isinstance(value, (list, dict)) or not value or data.draw(st.booleans()):
        return data.draw(ANY_VALUE)
    value = copy.copy(value)
    keys = range(len(value)) if isinstance(value, list) else sorted(value)
    key = data.draw(st.sampled_from(list(keys)))
    action = data.draw(st.sampled_from(["mutate", "delete", "add"]))
    if action == "delete":
        del value[key]
    elif action == "add" and isinstance(value, list):
        value.append(data.draw(st.sampled_from(value)))
    elif action == "add":
        value[data.draw(st.sampled_from(["c", "d", "extra", "horizon", "scale"]))] = (
            data.draw(SCALARS))
    else:
        value[key] = _mutated(data, value[key])
    return value


@given(doc=st.sampled_from([SCALAR_DOC, UNICYCLE_DOC, AGENT_DOC]),
       key=st.sampled_from(sorted(TEMPLATES)), data=st.data())
@settings(max_examples=500, deadline=None)
def test_any_list_or_mapping_value_runs_or_raises_scenario_error(doc, key, data):
    value = _mutated(data, doc.get(key, TEMPLATES[key]))
    try:
        sc = parse_scenario_text(yaml.safe_dump({**doc, key: value}))
        for mode in ("simulate", "probe"):
            _resolved(sc, RunConfig(mode, sc.name, "unused"))
    except ScenarioError:
        return
    # a scenario that loads builds its systems and fields and evaluates them; a
    # map whose float arithmetic overflows at x0 (an xstar near 1e308) raises
    refused = []
    for w in sc.omegas:
        try:
            assemble_rhs(sc.build_system(w))(0.0, sc.x0)
        except ArithmeticError:  # FieldEvaluationError included
            refused.append(w)
    try:
        value = sc.lie_field()(0.0, sc.x0)
    except OverflowError:  # the map the averaged field calls: every rhs called it too
        assert refused == list(sc.omegas)
    else:
        assert value.shape == (sc.dim,)


def _agents_with(key, values):
    agents = copy.deepcopy(UNICYCLE_DOC["agents"])
    for agent, value in zip(agents, values):
        agent[key] = value
    return agents


@pytest.mark.parametrize("key,value,message", [
    ("agents", _agents_with("a", ["1e400"]), "float range"),
    ("agents", _agents_with("d", ["1e400"]), "float range"),
    ("agents", _agents_with("a", [10 ** 400]), "float range"),
    ("agents", _agents_with("a", ["1e-300", "2e-300", "3e-300"]), "base frequency"),
    ("map", {"builtin": []}, "builtin"),
])
def test_values_the_fuzzing_found_are_scenario_errors(key, value, message):
    with pytest.raises(ScenarioError, match=message):
        parse_scenario_text(yaml.safe_dump({**UNICYCLE_DOC, key: value}))


def test_probe_block_parsed():
    sc = bundled_scenario("three_agent_single_integrator")
    assert sc.probe is not None
    assert sc.probe.deltas == (0.5,)
    assert sc.probe.epsilon > 0


@pytest.mark.parametrize("key,value", [("delta", [-0.5]), ("epsilon", 0.0), ("t_f", math.nan),
                                       ("horizon", 0.5), ("boundary_samples", 4097)])
def test_a_probe_rule_refuses_a_yaml_block_and_the_library_in_the_same_words(key, value):
    block = {"delta": [0.1], "epsilon": 0.5, "t_f": 1.0, key: value}
    with pytest.raises(ValueError) as library:
        ProbeConfig(**{("deltas" if k == "delta" else k): v for k, v in block.items()})
    with pytest.raises(ScenarioError) as loaded:
        parse_scenario_text(yaml.safe_dump({**AGENT_DOC, "probe": block}))
    assert str(loaded.value) == f"scenario.probe: {library.value}"


def test_generic_averaged_field_of_a_square_dither_falls_back_to_quadrature():
    # no closed form exists for a square dither: both averaged fields switch
    # to quadrature instead of refusing a scenario every CLI mode accepts
    sc = parse_scenario_text(yaml.safe_dump({**SCALAR_DOC, "dither": ["cosine:1", "square:1"]}))
    assert sc.nu_method == "closed_form"
    z = np.array([0.3])
    value = sc.generic_lie_field()(0.0, z)
    assert value == sc.lie_field()(0.0, z)
    assert value[0] == pytest.approx(0.891268, abs=1e-6)


def _scenario_texts():
    data = resources.files("ditherseek").joinpath("data")
    texts = [data.joinpath(f"{name}.yaml").read_text(encoding="utf-8") for name in list_bundled()]
    bench = Path(__file__).resolve().parents[1] / "bench" / "scenarios" / "uni_probe.yaml"
    return texts + [bench.read_text(encoding="utf-8")]


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_scenarios_parse_with_libyaml_to_the_documents_of_safe_load():
    assert scenarios._LOADER is yaml.CSafeLoader
    for text in _scenario_texts():
        assert yaml.load(text, Loader=scenarios._LOADER) == yaml.safe_load(text)


@pytest.mark.parametrize("depth", [MAX_FLOW_DEPTH + 1, 2000, 50_000])
def test_block_nesting_past_the_bound_is_refused_before_a_document_is_built(depth):
    # libyaml builds documents recursively in C, and 50,000 block levels would
    # overflow its stack and end the process; the event stream is read first,
    # in constant stack, and refused past the bound under either parser
    with pytest.raises(ScenarioError, match="^scenario syntax error: collections "
                                            f"nested more than {MAX_FLOW_DEPTH} deep$"):
        parse_scenario_text(_nested_omega(depth).decode())
    with pytest.raises(ScenarioError, match=r"^scenario\.omega\[0\]: expected a number"):
        parse_scenario_text(_nested_omega(MAX_FLOW_DEPTH).decode())


_EVENTS_READ = textwrap.dedent("""
    import json, sys, yaml
    if sys.argv[1] == "pure":
        del yaml.CSafeLoader
    from ditherseek import scenarios
    assert scenarios._LOADER is (yaml.SafeLoader if sys.argv[1] == "pure" else yaml.CSafeLoader)
    parse, counts = yaml.parse, []

    def counting(*args, **kwargs):
        for event in parse(*args, **kwargs):
            counts[-1] += 1
            yield event

    yaml.parse = counting
    for text in json.load(sys.stdin):
        counts.append(0)
        try:
            scenarios.parse_scenario_text(text)
        except scenarios.ScenarioError as exc:
            assert "collections nested more than" in str(exc), exc
        else:
            raise AssertionError("parsed " + text[-20:])
    print(json.dumps(counts))
    """)


@pytest.mark.parametrize("loader", [
    pytest.param("libyaml", marks=pytest.mark.skipif(not yaml.__with_libyaml__,
                                                     reason="PyYAML built without libyaml")),
    "pure"])
def test_the_depth_check_reads_as_many_events_whatever_the_depth(loader):
    # refusing 50,000 block levels or 200,000 flow levels on one line reads no
    # more of the event stream than refusing one level past the bound
    texts = [_nested_omega(depth, flow).decode()
             for depth, flow in ((MAX_FLOW_DEPTH + 1, False), (50_000, False),
                                 (MAX_FLOW_DEPTH + 1, True), (200_000, True))]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src)] + sys.path))
    done = subprocess.run([sys.executable, "-c", _EVENTS_READ, loader], env=env,
                          input=json.dumps(texts), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    counts = json.loads(done.stdout)
    assert counts == [counts[0]] * len(texts), counts


def test_without_libyaml_scenarios_parse_with_the_pure_python_loader():
    # the documented fallback: the same documents and the same refusals
    code = textwrap.dedent(f"""
        import yaml
        del yaml.CSafeLoader
        from ditherseek import scenarios
        assert scenarios._LOADER is yaml.SafeLoader
        for name in scenarios.list_bundled():
            sc = scenarios.load_scenario(name)
            assert sc.name == name, sc.name
        deep = "omega:\\n" + "- " * 2000 + "1\\n"
        for text, problem in ((deep, "collections nested more than {MAX_FLOW_DEPTH} deep"),
                              ("omega: " + "[" * 101 + "1" + "]" * 101 + "\\n",
                               "collections nested more than {MAX_FLOW_DEPTH} deep"),
                              ("omega: [1, 2\\n", "expected ',' or ']', but got '<stream end>'")):
            try:
                scenarios.parse_scenario_text(text)
            except scenarios.ScenarioError as exc:
                assert str(exc).startswith("scenario syntax error") and problem in str(exc), exc
            else:
                raise AssertionError("parsed " + text[:20])
        """)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src)] + sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
