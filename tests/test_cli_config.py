"""The --config file: each key is read as its flag's default, so a config
file gives the same report as its flags, a flag beats its key, and unknown
keys are one usage error."""

import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from hkt4 import suites
from hkt4.cli import main
from hkt4.report import VerificationReport
from test_report_golden import DATA, RUNS, run, same_defect, without

# the option-name and the parameter-name spelling of the renamed inputs,
# alternated over the golden commands
SPELLINGS = [{"flow": "flow", "format": "format"},
             {"flow": "flow_eps", "format": "fmt"}]


def config_of(args, spelling) -> str:
    """The flags of ``args`` as config lines, with an explicit JSON format."""
    pairs = [(args[k][2:], args[k + 1]) for k in range(1, len(args), 2)] + [("format", "json")]
    return "".join(f"{spelling.get(key, key)} = {value}\n" for key, value in pairs)


@pytest.mark.parametrize("k, args", [(k, args) for k, args in enumerate(RUNS) if len(args) > 1],
                         ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_config_file_gives_the_golden_report_of_its_flags(tmp_path, k, args):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("# the flags of a golden command\n\n" + config_of(args, SPELLINGS[k % 2]))
    got = run([args[0], "--config", str(cfg)])
    assert got == run(args)
    with open(DATA, encoding="utf-8") as fh:
        want = json.load(fh)[" ".join(args)]
    assert without(got, "checks") == without(want, "checks")
    assert [without(c, "defect") for c in got["checks"]] == \
        [without(c, "defect") for c in want["checks"]]
    assert all(same_defect(g["defect"], w["defect"])
               for g, w in zip(got["checks"], want["checks"]))


def test_every_unknown_key_is_named_in_one_usage_error(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("grdi = 5\ngrid = 4\nbogus = 1\n")
    result = CliRunner().invoke(main, ["moduli", "--config", str(cfg)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1] == "Error: unknown config key: bogus, grdi"
    # degree reads no config
    result = CliRunner().invoke(main, ["degree", "--config", str(cfg), "--f", "dx0^dx1",
                                       "--omega", "dx0^dx1+dx2^dx3"])
    assert result.exit_code == 2


# each input of ``report`` that reaches the suite: its keyword, its flag, a
# config value and a flag value, and what the suite receives for each
INPUTS = [
    ("q", "--q", "3", "5/2", Fraction(3), Fraction(5, 2)),
    ("grid", "--grid", "5", "6", 5, 6),
    ("rank", "--rank", "3", "4", 3, 4),
    ("tol", "--tol", "1e-8", "1e-6", 1e-8, 1e-6),
    ("flow_eps", "--flow", "0.5", "-0.25", 0.5, -0.25),
    ("seed", "--seed", "11", "12", 11, 12),
]


@pytest.mark.parametrize("name, flag, cfg_text, flag_text, from_cfg, from_flag", INPUTS,
                         ids=[case[0] for case in INPUTS])
def test_a_flag_beats_its_config_key(monkeypatch, tmp_path, name, flag, cfg_text,
                                     flag_text, from_cfg, from_flag):
    calls = []

    def spy(**kwargs):
        calls.append(kwargs)
        return VerificationReport(checks=[], seed=kwargs["seed"])

    monkeypatch.setattr(suites, "full_report", spy)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{flag[2:]} = {cfg_text}\n")
    config = ["--config", str(cfg)]
    # the config is read first wherever it sits on the command line
    for args, want in [(config, from_cfg), (config + [flag, flag_text], from_flag),
                       ([flag, flag_text] + config, from_flag)]:
        result = CliRunner().invoke(main, ["report"] + args)
        assert result.exit_code == 0, (args, result.output)
        assert calls.pop()[name] == want, args


def test_format_and_out_flags_beat_their_config_keys(monkeypatch, tmp_path):
    monkeypatch.setattr(suites, "flat_suite", lambda: [])
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"format = markdown\nout = {tmp_path / 'from_cfg.txt'}\n")
    result = CliRunner().invoke(main, ["verify-flat", "--config", str(cfg)])
    assert result.exit_code == 0
    assert result.stdout.startswith("# verification report")
    assert (tmp_path / "from_cfg.txt").read_text() + "\n" == result.stdout
    result = CliRunner().invoke(main, ["verify-flat", "--format", "json", "--config", str(cfg),
                                       "--out", str(tmp_path / "from_flag.txt")])
    assert result.exit_code == 0
    json.loads(result.stdout)
    assert (tmp_path / "from_flag.txt").read_text() + "\n" == result.stdout


def test_a_directory_or_a_file_not_in_utf8_is_a_usage_error(tmp_path):
    # both exit 2 with click's usage message, not 3 as an internal error
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes(b"grid = 4\n\xff\xfe\n")
    for path, message in [(tmp_path, "is a directory"), (cfg, "config file is not UTF-8")]:
        result = CliRunner().invoke(main, ["moduli", "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr.startswith("Usage:")
        assert message in result.stderr.splitlines()[-1]
