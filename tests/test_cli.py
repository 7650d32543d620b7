"""CLI surface: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

import polyfactor
from polyfactor.cli import main
from polyfactor.config import Config


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_factor_cd_json(capsys):
    code, out, _ = run_cli(
        capsys, "--expand", "factor-cd", "--delta", "1", "(z1+z2)^2*z1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["scalar"] == "1"
    assert payload["factors"] == [
        {"multiplicity": 1, "poly": "z1"},
        {"multiplicity": 2, "poly": "z1 + z2"},
    ]


def test_multiplicity(capsys):
    code, out, _ = run_cli(
        capsys,
        "multiplicity",
        "z1^3 + 2*z1^2*z2 + z1*z2^2",
        "z1 + z2",
    )
    assert code == 0
    assert json.loads(out)["multiplicity"] == 2


def test_multiplicity_in_zero_fails_fast():
    # every power of g divides 0, and the derivative of 0 stays 0, so the
    # search for the first power that does not divide never ends
    src = os.path.dirname(os.path.dirname(os.path.abspath(polyfactor.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-m", "polyfactor.cli", "multiplicity", "0", "z1"],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert out.returncode == 1, out.stderr
    assert out.stderr.startswith("error: ")


def test_expand_reads_both_operands(capsys):
    code, out, _ = run_cli(
        capsys, "--expand", "divides", "(z1+1)^2*(z1-2)", "(z1+1)"
    )
    assert code == 0
    assert json.loads(out) == {"divides": True, "quotient": "z1^2 - z1 - 2"}
    code, out, _ = run_cli(
        capsys, "--expand", "multiplicity", "(z1+1)^2*(z1-2)", "(z1+1)"
    )
    assert code == 0
    assert json.loads(out)["multiplicity"] == 2


def test_pit_text(capsys):
    code, out, _ = run_cli(capsys, "--format", "text", "pit", "z1 - z1")
    assert code == 0
    assert out.strip() == "zero"
    code, out, _ = run_cli(capsys, "--format", "text", "pit", "z1 + 0")
    assert out.strip() == "nonzero"


def test_divides_with_witness(capsys):
    code, out, _ = run_cli(
        capsys, "divides", "--witness", "z1^2 - z2^2", "z1 + z2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["divides"] is True
    assert payload["quotient"] == "z1 - z2"


def test_promise_violation_exit_code(capsys):
    code, _, err = run_cli(
        capsys,
        "--expand",
        "factor-cd-promise",
        "--delta",
        "2",
        "(z1^3 + z2 + 5)*(z1 + z2)",
    )
    assert code == 2
    assert "error" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "pit", "z1 + + q")
    assert code == 1


def test_cap_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("max_delta = 1\n")
    code, _, err = run_cli(
        capsys,
        "--config",
        str(cfg),
        "factor-cd",
        "--delta",
        "2",
        "z1^2 - z2^2",
    )
    assert code == 2


def test_isolate(capsys):
    code, out, _ = run_cli(capsys, "isolate", "--n", "2", "--delta", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 2, "delta": 2, "w": [1, 3], "w_prime": [3, 1]}
    for n, delta in (("0", "2"), ("2", "0")):
        code, _, err = run_cli(capsys, "isolate", "--n", n, "--delta", delta)
        assert (code, err) == (1, "error: need n >= 1 and delta >= 1\n")


@pytest.mark.parametrize("n, delta", [(3, 2), (4, 2), (5, 1)])
def test_isolate_prints_the_scheme_factor_cd_projects_on(capsys, n, delta):
    f = polyfactor.parse_poly(" + ".join("z%d" % i for i in range(1, n + 1)) + " + 1")
    scheme = polyfactor.projected_factoring(f, delta).scheme
    code, out, _ = run_cli(capsys, "isolate", "--n", str(n), "--delta", str(delta))
    assert code == 0
    payload = json.loads(out)
    assert (payload["w"], payload["w_prime"]) == (list(scheme.w), list(scheme.w_prime))


def test_factor_su(capsys):
    code, out, _ = run_cli(
        capsys, "--expand", "factor-su", "(z1^2+z2^2+z3^2)*(z1+1)"
    )
    assert code == 0
    payload = json.loads(out)
    polys = [f["poly"] for f in payload["factors"]]
    assert "z1 + 1" in polys
    assert "z1^2 + z2^2 + z3^2" in polys


def test_irreducible(capsys):
    code, out, _ = run_cli(
        capsys, "irreducible", "--oracle", "su", "z1^2 + z2^2 + z3^2"
    )
    assert code == 0
    assert json.loads(out)["irreducible"] is True


def test_factor_sparse_oracle_spec(capsys):
    code, out, _ = run_cli(
        capsys,
        "--expand",
        "factor-sparse",
        "--sparsity",
        "8",
        "--oracle",
        "constant-degree:2",
        "(z1+z2)*(z1^2+z2^2+1)",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["factors"]) == 2


def test_constant_degree_oracle_rejects_delta_zero(capsys):
    code, out, err = run_cli(
        capsys, "factor-sparse", "--sparsity", "3", "--oracle", "constant-degree:0",
        "z1^2 - z2^2",
    )
    assert code == 1
    assert out == ""
    assert "delta must be >= 1" in err


def test_output_deterministic(capsys):
    args = ("--expand", "factor-cd", "--delta", "2", "(z1+z2)*(z1^2+z2^2+1)")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("z1^2 - 1"))
    code, out, _ = run_cli(capsys, "pit", "-")
    assert code == 0
    assert json.loads(out)["zero"] is False


def test_zero_denominator_exit_code(capsys):
    code, _, err = run_cli(capsys, "pit", "1/0")
    assert code == 1
    assert err.startswith("error: ")


def test_config_removed_key_names_its_line(tmp_path, capsys):
    # strict_caps, su_budget and oracle_points are gone: a file naming one
    # fails as an unknown key rather than being read and ignored
    cfg = tmp_path / "caps.cfg"
    for line in ("strict_caps = true", "su_budget = 30000", "oracle_points = 5000"):
        cfg.write_text("max_delta = 3\n%s\n" % line)
        code, out, err = run_cli(capsys, "--config", str(cfg), "pit", "z1")
        assert code == 1
        assert out == ""
        key = line.split(" ", 1)[0]
        assert err.startswith("error: %s:2: unknown key %r" % (cfg, key))


def test_config_bad_int_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("# caps\nmax_delta = three\n")
    code, _, err = run_cli(capsys, "--config", str(cfg), "pit", "z1")
    assert code == 1
    assert err.startswith("error: %s:2: max_delta expects an integer" % cfg)


def test_config_negative_int_names_its_line(tmp_path, capsys):
    # a negative cap would switch the search off without a word
    cfg = tmp_path / "caps.cfg"
    for key in ("su_stall", "max_dense_cells"):
        cfg.write_text("max_delta = 3\n%s = -1\n" % key)
        code, out, err = run_cli(capsys, "--config", str(cfg), "factor-su", "z1^2 - z2^2")
        assert code == 1
        assert out == ""
        assert err.startswith("error: %s:2: %s expects a non-negative integer" % (cfg, key))
    cfg.write_text("su_stall = 0\n")
    assert Config.from_file(str(cfg)).su_stall == 0


def test_config_constructor_rejects_bad_caps():
    # Config(su_stall=-1) used to switch the su search off without a word
    for key in ("max_dense_cells", "max_delta", "su_stall"):
        for bad in (-1, True, 2.0, "5", None):
            with pytest.raises(ValueError, match="%s expects a non-negative integer" % key):
                Config(**{key: bad})
        assert getattr(Config(**{key: 0}), key) == 0


def test_config_missing_file_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    code, _, err = run_cli(capsys, "--config", str(missing), "pit", "z1")
    assert code == 1
    assert err.startswith("error: cannot read config %s" % missing)
    assert "Traceback" not in err
    code, _, err = run_cli(capsys, "--config", str(tmp_path), "pit", "z1")
    assert code == 1
    assert err.startswith("error: cannot read config")
