"""Report schema, determinism, and the command-line surface."""

import json
import os
import tempfile

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from hkt4 import __version__, forms
from hkt4.cli import main, parse_form_spec
from hkt4.report import (
    CONVENTIONS,
    CheckResult,
    VerificationReport,
    convention_ledger_hash,
    emit_report,
)


def make_report():
    return VerificationReport(checks=[
        CheckResult("a.first", "pass", "exact-zero", "claim one", 1.0),
        CheckResult("b.second", "fail", 0.25, "claim two", 2.0),
        CheckResult("c.third", "pass", 1e-12, "plumbing", 3.0),
    ], seed=7)


def test_the_ledger_reads_the_twisted_differential_sign_of_the_code():
    # a flipped DC_SIGN changes every report's convention_ledger_hash
    assert CONVENTIONS["twisted_differential_sign"] == forms.DC_SIGN == -1


def test_report_json_schema():
    rep = make_report()
    doc = json.loads(rep.to_json())
    assert doc["schema"] == "report-v1"
    assert doc["status"] == "fail"
    assert doc["seed"] == 7
    assert doc["convention_ledger_hash"] == convention_ledger_hash()
    # failing checks come first
    assert doc["checks"][0]["name"] == "b.second"
    names = {c["name"] for c in doc["checks"]}
    assert names == {"a.first", "b.second", "c.third"}
    for c in doc["checks"]:
        assert set(c) == {"name", "status", "defect", "paper_ref", "ms"}
    # exact-zero stays a string, floats stay numbers
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["a.first"]["defect"] == "exact-zero"
    assert isinstance(by_name["c.third"]["defect"], float)


def test_report_json_encodes_non_finite_defects_as_strings():
    rep = VerificationReport(checks=[
        CheckResult("a.nan", "fail", float("nan")),
        CheckResult("b.inf", "fail", float("inf")),
        CheckResult("c.neg", "fail", float("-inf")),
        CheckResult("d.finite", "pass", 0.5),
    ])
    doc = rep.to_json()
    assert "NaN" not in doc and "Infinity" not in doc
    defects = {c["name"]: c["defect"] for c in json.loads(doc)["checks"]}
    assert defects == {"a.nan": "nan", "b.inf": "inf", "c.neg": "-inf", "d.finite": 0.5}
    assert json.loads(emit_report(rep)) == json.loads(doc)


def indent_2(doc: dict) -> str:
    """The layout the reports keep: the pure-Python encoder at indent 2."""
    return json.dumps(doc, indent=2, allow_nan=False)


@pytest.mark.parametrize("rep", [
    VerificationReport(),
    VerificationReport(checks=[
        CheckResult('a "quoted" {name},', "fail", float("nan"), 'claim}, {"two"\n', 1.5),
        CheckResult("b.inf", "fail", float("-inf")),
        CheckResult("c.tiny", "pass", 1e-300, "plumbing", 0.0004),
        CheckResult("d.exact", "pass", "exact-zero", "\u00e9t\u00e9"),
    ], seed=2**64 - 1),
    make_report(),
], ids=["empty", "non-finite-and-quotes", "three-checks"])
def test_report_json_is_the_indent_2_encoding(rep):
    assert rep.to_json() == indent_2(rep.to_dict())


def test_golden_commands_print_the_indent_2_encoding():
    from test_report_golden import RUNS

    for args in RUNS:
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, (args, result.output)
        assert result.output == indent_2(json.loads(result.output)) + "\n", args


def test_importing_hkt4_loads_no_hashlib():
    # OpenSSL's hashlib costs milliseconds per interpreter; only the ledger
    # hash of a report needs it
    import subprocess
    import sys

    import hkt4

    code = "import sys, hkt4, hkt4.cli; print('hashlib' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hkt4.__file__))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.stdout.strip() == "False", proc.stderr
    assert convention_ledger_hash() == "4029e16666fceba5"


def test_report_markdown():
    md = make_report().to_markdown()
    assert md.startswith("# verification report (FAIL)")
    assert "| b.second | fail |" in md
    assert "exact-zero" in md
    assert emit_report(make_report(), "markdown") == md
    with pytest.raises(ValueError):
        emit_report(make_report(), "yaml")


def test_full_report_names_each_check_once():
    from hkt4.suites import full_report

    names = [c.name for c in full_report().checks]
    assert len(names) == len(set(names))


def test_every_report_names_each_check_once():
    # the golden reports, and verify-hopf at two seeds that draw an axis twice
    import random

    from hkt4.suites import random_rational_axis
    from test_report_golden import DATA

    with open(DATA, encoding="utf-8") as fh:
        reports = list(json.load(fh).values())
    for seed in (11, 276):
        rng = random.Random(seed)
        axes = {random_rational_axis(rng) for _ in range(5)}
        result = CliRunner().invoke(main, ["verify-hopf", "--seed", str(seed)])
        assert result.exit_code == 0, result.output
        rep = json.loads(result.output)
        assert len(axes) == 4 == sum(c["name"].startswith("hopf.axis-metric.")
                                     for c in rep["checks"])
        reports.append(rep)
    for rep in reports:
        names = [c["name"] for c in rep["checks"]]
        assert len(names) == len(set(names))


def test_report_pass_status():
    rep = VerificationReport(checks=[
        CheckResult("x", "pass", "exact-zero"),
        CheckResult("y", "skipped", 0.0),
    ])
    assert rep.passed
    assert json.loads(rep.to_json())["status"] == "pass"


def test_parse_form_spec():
    terms = parse_form_spec("-2*pi*i*dx0^dx1 + dx2^dx3")
    assert set(terms) == {(0, 1), (2, 3)}
    assert abs(terms[(0, 1)] + 2j * 3.141592653589793) < 1e-12
    assert terms[(2, 3)] == 1.0
    # reversed indices flip the sign
    assert parse_form_spec("dx1^dx0")[(0, 1)] == -1.0
    with pytest.raises(ValueError):
        parse_form_spec("dx0^dx0")
    with pytest.raises(ValueError):
        parse_form_spec("2*pi")


def test_form_specs_read_floats_in_scientific_notation():
    # a sign after an exponent's e is the exponent's, not a new term
    assert parse_form_spec("-2e-1*pi*i*dx0^dx1") == parse_form_spec("-0.2*pi*i*dx0^dx1")
    assert parse_form_spec("1e+0*dx0^dx1+dx2^dx3") == {(0, 1): 1.0, (2, 3): 1.0}
    runner = CliRunner()
    for f, omega in (("-2e-1*pi*i*dx0^dx1", "dx0^dx1+dx2^dx3"),
                     ("-0.2*pi*i*dx0^dx1", "1E+0*dx0^dx1+dx2^dx3")):
        result = runner.invoke(main, ["degree", "--f", f, "--omega", omega])
        assert result.exit_code == 0, result.output
        assert abs(json.loads(result.stdout)["degree"] - 0.1) < 1e-12


@pytest.mark.parametrize("spec", ["--dx0^dx1", "+-dx0^dx1", "dx0^dx1+", "dx0^dx1+-dx2^dx3",
                                  "dx0^dx1++dx2^dx3", "-"])
def test_form_specs_refuse_a_sign_with_no_term(spec):
    # a sign that no term follows was dropped, not refused
    with pytest.raises(ValueError):
        parse_form_spec(spec)
    for flag, other in (("--f", "dx0^dx1+dx2^dx3"), ("--omega", "dx0^dx1+dx2^dx3")):
        args = ["degree", flag, spec, "--omega" if flag == "--f" else "--f", other]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, (args, result.output)


@pytest.mark.parametrize("spec", ["-2*pi*i*dx1^dx0*dx2^dx3", "dx0^dx1*dx2^dx3",
                                  "dx0^dx1+2*dx0^dx2*pi*dx1^dx3"])
def test_form_specs_refuse_a_term_with_two_basis_factors(spec):
    # a term's last dxA^dxB was kept and the others dropped
    with pytest.raises(ValueError, match="more than one basis factor"):
        parse_form_spec(spec)
    for flag, other in (("--f", "dx0^dx1+dx2^dx3"), ("--omega", "dx0^dx1")):
        args = ["degree", flag, spec, "--omega" if flag == "--f" else "--f", other]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, (args, result.output)
        assert "more than one basis factor" in result.output


@pytest.mark.parametrize("eps", ["1e77", "1e300"])
def test_a_diverging_flow_fails_the_flow_checks(eps):
    # the residual overflows at the flow's start: both flow checks fail
    # (exit 1), not an internal error (exit 3), and no RuntimeWarning is
    # raised on the way (the test suite makes one an error)
    result = CliRunner().invoke(main, ["moduli", "--grid", "4", "--rank", "2", "--flow", eps])
    assert result.exit_code == 1, result.output
    status = {c["name"]: c["status"] for c in json.loads(result.stdout)["checks"]}
    assert status.pop("moduli.flow-monotone") == status.pop("moduli.flow-reduction") == "fail"
    assert set(status.values()) == {"pass"}


@pytest.mark.parametrize("eps", ["1e308", "-1.7e308", "1e300"])
def test_a_flow_start_past_float64_fails_the_flow_checks(eps):
    # at 1e308 the start's draw times eps overflows before the flow runs; the
    # flow tests finiteness from its start, so a fresh interpreter that makes
    # a RuntimeWarning an error still exits 1 with nothing on stderr
    import subprocess
    import sys

    import hkt4

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hkt4.__file__))}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "hkt4.cli",
                           "moduli", "--grid", "4", "--rank", "2", "--flow", eps],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (1, ""), proc.stderr
    status = {c["name"]: c["status"] for c in json.loads(proc.stdout)["checks"]}
    assert status.pop("moduli.flow-monotone") == status.pop("moduli.flow-reduction") == "fail"
    assert set(status.values()) == {"pass"}


class TestCli:
    def setup_method(self):
        self.runner = CliRunner()

    def test_version_from_source(self):
        result = self.runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert __version__ in result.output

    @pytest.mark.parametrize("args", [
        ["degree", "--f", "nan*dx0^dx1", "--omega", "dx0^dx1+1e300*dx2^dx3"],
        ["degree", "--f", "1e999*i*dx0^dx1", "--omega", "dx0^dx1+1e300*dx2^dx3"],
        ["degree", "--f", "1e300*i*dx0^dx1", "--omega", "dx0^dx1+1e300*dx2^dx3"],
        ["moduli", "--tol", "nan"],
        ["moduli", "--tol", "-1"],
        ["moduli", "--flow", "inf"],
        ["report", "--tol", "nan"],
        ["report", "--tol", "-1"],
        # finite but outside their domain
        ["report", "--grid", "2"],
        ["report", "--rank", "1"],
        ["moduli", "--seed", "-1"],
        ["report", "--seed", "-1"],
        ["verify-hopf", "--seed", "-1"],
        ["verify-flat", "--seed", "-1"],
        ["moduli", "--seed", str(2**64)],
        ["report", "--seed", str(2**64)],
        ["verify-hopf", "--seed", str(2**64)],
        ["moduli", "--config", "seed = -5"],
        ["moduli", "--flow", "0"],
        ["degree", "--f", "-2*pi*i*dx0^dx1", "--omega", "0*dx0^dx1"],
    ])
    def test_non_finite_numbers_are_usage_errors(self, args, tmp_path):
        if "--config" in args:  # the text of the config file
            k = args.index("--config") + 1
            (tmp_path / "cfg.txt").write_text(args[k] + "\n")
            args = args[:k] + [str(tmp_path / "cfg.txt")] + args[k + 1:]
        result = self.runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1].startswith("Error:")
        assert "NaN" not in result.output and "Infinity" not in result.output

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grdi = 5\n")
        result = self.runner.invoke(main, ["moduli", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "grdi" in result.output

    def test_internal_error_exits_3_without_traceback(self, monkeypatch):
        from hkt4 import suites

        def broken():
            raise RuntimeError("suite broke")

        monkeypatch.setattr(suites, "flat_suite", broken)
        result = self.runner.invoke(main, ["verify-flat"])
        assert result.exit_code == 3
        assert result.stderr == "Error: internal error: RuntimeError: suite broke\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("command,suite", [("moduli", "moduli_suite"),
                                               ("report", "full_report")])
    def test_out_of_memory_names_grid_and_rank(self, monkeypatch, command, suite):
        from hkt4 import suites

        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 243. MiB")

        monkeypatch.setattr(suites, suite, out_of_memory)
        result = self.runner.invoke(main, [command, "--grid", "24", "--rank", "3"])
        assert result.exit_code == 3
        assert result.stderr == ("Error: internal error: MemoryError: out of memory at "
                                 "grid 24, rank 3: Unable to allocate 243. MiB\n")
        assert result.stdout == ""

    def test_verify_hopf_passes(self):
        result = self.runner.invoke(main, ["verify-hopf", "--q", "2"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["status"] == "pass"
        names = {c["name"] for c in doc["checks"]}
        assert "hopf.torsion-opposition" in names
        assert "frames.independence" in names

    def test_verify_hopf_rejects_q_one(self):
        result = self.runner.invoke(main, ["verify-hopf", "--q", "1"])
        assert result.exit_code == 2

    def test_verify_hopf_rational_q(self):
        result = self.runner.invoke(main, ["verify-hopf", "--q", "3/2"])
        assert result.exit_code == 0

    def test_unknown_flag_exits_2(self):
        result = self.runner.invoke(main, ["verify-flat", "--bogus"])
        assert result.exit_code == 2

    def test_verify_flat(self):
        result = self.runner.invoke(main, ["verify-flat"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        names = {c["name"] for c in doc["checks"]}
        assert "flat.hyperkahler-degenerate" in names

    def test_moduli_small(self):
        result = self.runner.invoke(
            main, ["moduli", "--grid", "3", "--rank", "2", "--tol", "1e-10"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["moduli.kernel-dimension"]["status"] == "pass"
        assert by_name["moduli.hermitian-form-sign"]["status"] == "pass"

    def test_moduli_usage_errors(self):
        assert self.runner.invoke(main, ["moduli", "--grid", "2"]).exit_code == 2
        assert self.runner.invoke(main, ["moduli", "--rank", "1"]).exit_code == 2

    def test_moduli_with_flow(self):
        result = self.runner.invoke(
            main, ["moduli", "--grid", "3", "--rank", "2", "--flow", "1e-2"])
        assert result.exit_code == 0
        names = {c["name"] for c in json.loads(result.output)["checks"]}
        assert "moduli.flow-monotone" in names
        assert "moduli.flow-reduction" in names

    def test_moduli_flow_from_the_slow_rank_3_start(self):
        # from this start the fixed-growth step takes 6,423 iterations, the
        # plain BB step 286
        result = self.runner.invoke(main, ["moduli", "--grid", "4", "--rank", "3",
                                           "--flow", "1e-2", "--seed", "0"])
        assert result.exit_code == 0
        by_name = {c["name"]: c for c in json.loads(result.output)["checks"]}
        assert by_name["moduli.flow-monotone"]["status"] == "pass"
        assert by_name["moduli.flow-reduction"]["status"] == "pass"

    def test_unwritable_out_is_clean_failure(self, tmp_path):
        result = self.runner.invoke(
            main, ["verify-flat", "--out", str(tmp_path / "no" / "x.json")])
        assert result.exit_code == 1
        assert "cannot write report" in result.output

    @pytest.mark.parametrize("args", [
        ["report"],
        ["degree", "--f", "-2*pi*i*dx0^dx1", "--omega", "dx0^dx1+dx2^dx3"],
    ])
    def test_unwritable_out_is_clean_failure_for_report_and_degree(self, tmp_path, args):
        result = self.runner.invoke(main, args + ["--out", str(tmp_path / "no" / "x.json")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "cannot write report" in result.output

    def test_degree_command(self):
        result = self.runner.invoke(
            main, ["degree", "--f", "-2*pi*i*dx0^dx1",
                   "--omega", "dx0^dx1+dx2^dx3"])
        assert result.exit_code == 0
        assert abs(json.loads(result.output)["degree"] - 1.0) < 1e-12

    def test_degree_bad_spec(self):
        result = self.runner.invoke(
            main, ["degree", "--f", "wat", "--omega", "dx0^dx1"])
        assert result.exit_code == 2

    def test_report_markdown_format(self):
        result = self.runner.invoke(main, ["report", "--format", "markdown",
                                           "--grid", "3"])
        assert result.exit_code == 0
        assert result.output.startswith("# verification report (pass)")

    def test_out_file_and_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HKT4_OUT_DIR", str(tmp_path))
        result = self.runner.invoke(main, ["verify-flat", "--out", "r.json"])
        assert result.exit_code == 0
        assert (tmp_path / "r.json").exists()
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["status"] == "pass"

    def test_out_explicit_dir_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HKT4_OUT_DIR", str(tmp_path / "unused"))
        target = tmp_path / "direct.json"
        result = self.runner.invoke(main, ["verify-flat", "--out", str(target)])
        assert result.exit_code == 0
        assert target.exists()

    def test_config_file_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("q = 3\nformat = markdown\n")
        result = self.runner.invoke(main, ["verify-hopf", "--config", str(cfg)])
        assert result.exit_code == 0
        assert result.output.startswith("# verification report")
        result = self.runner.invoke(
            main, ["verify-hopf", "--config", str(cfg), "--format", "json"])
        assert result.exit_code == 0
        json.loads(result.output)

    def test_reports_deterministic_modulo_timing(self):
        out = []
        for _ in range(2):
            result = self.runner.invoke(
                main, ["verify-hopf", "--q", "2", "--seed", "5"])
            doc = json.loads(result.output)
            for c in doc["checks"]:
                c.pop("ms")
            out.append(doc)
        assert out[0] == out[1]

    def test_different_seed_changes_axis_checks(self):
        docs = []
        for seed in ("1", "2"):
            result = self.runner.invoke(
                main, ["verify-hopf", "--q", "2", "--seed", seed])
            docs.append(json.loads(result.output))
        names = [sorted(c["name"] for c in d["checks"]
                        if c["name"].startswith("hopf.axis-metric"))
                 for d in docs]
        assert names[0] != names[1]


# every option of every command: (valid values, invalid values or None), as
# text; a bare --out name lands in HKT4_OUT_DIR, which the test points at a
# temporary directory
_VALUES = {
    "q": (st.sampled_from(["2", "3", "3/2"]),
          st.fractions(max_value=1).map(str)
          | st.sampled_from(["abc", "nan", "inf", "1/0", "2.5.1"])),
    "grid": (st.integers(3, 5).map(str),
             st.integers(max_value=2).map(str) | st.just("3.5")),
    "rank": (st.integers(2, 3).map(str), st.integers(max_value=1).map(str)),
    "tol": (st.floats(1e-14, 1).map(repr),
            st.floats(max_value=0).map(repr) | st.sampled_from(["nan", "inf"])),
    "flow": (st.floats(1e-3, 1).map(repr) | st.floats(-1, -1e-3).map(repr),
             st.sampled_from(["0", "-0.0", "1e-400", "nan", "inf", "-inf"])),
    "seed": (st.integers(0, 2**64 - 1).map(str),
             (st.integers(max_value=-1) | st.integers(min_value=2**64)).map(str)),
    "format": (st.sampled_from(["json", "markdown"]), st.just("xml")),
    "out": (st.just("report.txt"), None),
    "f": (st.sampled_from(["-2*pi*i*dx0^dx1", "i*dx0^dx1 - 3*i*dx2^dx3"]),
          st.sampled_from(["nan*dx0^dx1", "1e999*i*dx0^dx1", "wat", "dx0^dx0", "2*pi"])),
    "omega": (st.sampled_from(["dx0^dx1+dx2^dx3", "2*dx0^dx2-dx1^dx3", "dx0^dx3+dx1^dx2"]),
              st.sampled_from(["0*dx0^dx1", "dx0^dx1", "i*dx0^dx1+dx2^dx3",
                               "dx0^dx1 + dx0^dx1"])),
}
_COMMON = ["seed", "format", "out"]
_OPTIONS = {
    "verify-hopf": ["q"] + _COMMON,
    "verify-flat": _COMMON,
    "moduli": ["grid", "rank", "tol", "flow"] + _COMMON,
    "report": ["q", "grid", "rank", "tol", "flow"] + _COMMON,
    "degree": ["f", "omega", "out"],
}


@st.composite
def cli_calls(draw):
    """(command, flags, config lines, whether some input is out of its
    domain); each option is a flag, a config key (not for ``degree``, which
    reads no config) or absent (not the required --f and --omega), and valid
    or not, and a config file may hold an unknown key."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    places = ["flag", "absent"] if command == "degree" else ["flag", "config", "absent"]
    flags, config, bad = [], [], False
    for name in _OPTIONS[command]:
        where = draw(st.sampled_from(["flag"] if name in ("f", "omega") else places))
        if where == "absent":
            continue
        valid, invalid = _VALUES[name]
        if invalid is not None and draw(st.integers(0, 4)) == 4:
            value, bad = draw(invalid), True
        else:
            value = draw(valid)
        if where == "flag":
            flags += [f"--{name}", value]
        else:
            config.append(f"{name} = {value}")
    if command != "degree" and draw(st.integers(0, 3)) == 3:
        config.append("bogus = 1")
        bad = True
    return command, flags, config, bad


def _refuse(constant):
    raise ValueError(f"not strict JSON: {constant}")


@settings(max_examples=200)
@given(cli_calls())
def test_every_cli_input_exits_0_1_or_2(call):
    command, flags, config, bad = call
    with tempfile.TemporaryDirectory() as tmp:
        args = [command] + flags
        if config:
            path = os.path.join(tmp, "cfg.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(config) + "\n")
            args += ["--config", path]
        result = CliRunner().invoke(main, args, env={"HKT4_OUT_DIR": tmp})
        assert result.exit_code in (0, 1, 2), (args, config, result.stderr)
        assert (result.exit_code == 2) == bad, (args, config, result.stderr)
        written = os.path.join(tmp, "report.txt")
        asked = "report.txt" in flags or "out = report.txt" in config
        assert os.path.exists(written) == (asked and not bad)
        if asked and not bad:
            with open(written, encoding="utf-8") as fh:
                assert fh.read() + "\n" == result.stdout
    if bad:
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1].startswith("Error:")
    elif "markdown" in flags or "format = markdown" in config:
        assert result.stdout.startswith("# verification report")
    else:
        json.loads(result.stdout, parse_constant=_refuse)
