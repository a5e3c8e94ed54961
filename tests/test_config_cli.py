"""Config parsing, manifests, and the wickns command-line harness."""

import gc
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wickns import cli
from wickns.cli import main
from wickns.config import COMMANDS, SCHEMA, ConfigError, parse_config, parse_config_text
from wickns.dynamics import wick_coeffs_block
from wickns.fields import field_to_csv, make_field, mode_field
from wickns.lab import divisor_count, tail_estimate_mc
from wickns.manifest import RunManifest, compare_outputs, sha256_file
from wickns.noise import NoiseOperator, bessel_operator, operator_to_csv, philox_stream, sample_white_noise_field
from wickns.norms import homogeneous_estimate_check


def _cfg(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read(*parts) -> str:
    return pathlib.Path(*parts).read_text()


def _fresh_python(args, tmp_path, **env_changes):
    """A fresh interpreter on this checkout's package, with the environment
    edited: a value of None removes the variable."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    for key, value in env_changes.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)


def _write(path, text: str) -> None:
    pathlib.Path(path).write_text(text)


def _json(out_dir, name="report.json"):
    return json.loads(_read(out_dir, name))


# ---------------------------------------------------------------------------
# config parsing


def test_parse_minimal_fills_defaults():
    cfg = parse_config_text("[run]\ncommand = solve\n")
    assert cfg.command == "solve"
    assert cfg.seed == 0 and cfg.out == "out" and cfg.workers == 1
    assert cfg.get("solver", "cutoff") == 16
    assert cfg.get("solver", "dt") == 0.015625
    assert cfg.get("noise", "kind") == "bessel"
    assert cfg.get("lab", "lambdas") == (1.0, 1.1, 1.2, 1.3, 1.4)
    assert cfg.get("lab", "cutoffs") == (16, 32, 64)


def test_parse_requires_command():
    with pytest.raises(ConfigError, match=r"\[run\] command: missing"):
        parse_config_text("[solver]\ncutoff = 8\n")
    with pytest.raises(ConfigError, match="unknown command"):
        parse_config_text("[run]\ncommand = frobnicate\n")


def test_parse_rejects_unknown_sections_and_keys():
    with pytest.raises(ConfigError, match=r"\[plotting\]: unknown section"):
        parse_config_text("[run]\ncommand = solve\n\n[plotting]\ndpi = 300\n")
    with pytest.raises(ConfigError, match=r"\[solver\] cutof: unknown key"):
        parse_config_text("[run]\ncommand = solve\n\n[solver]\ncutof = 8\n")


def test_parse_type_diagnostics_name_section_and_key():
    with pytest.raises(ConfigError, match=r"\[solver\] dt"):
        parse_config_text("[run]\ncommand = solve\n\n[solver]\ndt = soon\n")
    with pytest.raises(ConfigError, match=r"\[noise\] kind"):
        parse_config_text("[run]\ncommand = solve\n\n[noise]\nkind = pink\n")
    with pytest.raises(ConfigError, match=r"\[lab\] cutoffs"):
        parse_config_text("[run]\ncommand = solve\n\n[lab]\ncutoffs = 8,big\n")
    with pytest.raises(ConfigError, match=r"\[lab\] cutoffs: must be >= 0, got -2"):
        parse_config_text("[run]\ncommand = multiplier\n\n[lab]\ncutoffs = -2, 4\n")
    # k1_values are signed lattice points, not cutoffs
    assert parse_config_text("[run]\ncommand = sums\n\n[lab]\nk1_values = -64, 64\n").get("lab", "k1_values") == (-64, 64)
    with pytest.raises(ConfigError, match=r"\[solver\] cutoff: must be >= 0, got -1"):
        parse_config_text("[run]\ncommand = tail-mc\n\n[solver]\ncutoff = -1\n")
    with pytest.raises(ConfigError, match=r"\[noise\] alpha: must be finite, got 'nan'"):
        parse_config_text("[run]\ncommand = norms\n\n[noise]\nalpha = nan\n")
    with pytest.raises(ConfigError, match=r"\[lab\] lambdas: must be finite"):
        parse_config_text("[run]\ncommand = tail-mc\n\n[lab]\nlambdas = 1.0, inf, 1.2\n")


def test_resolved_config_reparses_to_equal_structure():
    cfg = parse_config_text(
        "[run]\ncommand = tail-mc\nseed = 7\nworkers = 3\n\n"
        "[lab]\nlambdas = 1.0, 1.25, 1.5\ncutoffs = 8,16\n\n[norms]\nb = 0.45\n"
    )
    again = parse_config_text(cfg.resolved)
    assert again == cfg
    assert again.resolved == cfg.resolved
    assert again.get("lab", "lambdas") == (1.0, 1.25, 1.5)


def test_with_overrides_validation():
    # the CLI applies its subcommand, --seed and --workers through with_value
    cfg = parse_config_text("[run]\ncommand = solve\n")
    up = cfg.with_value("run", "command", "divisors").with_value("run", "seed", 7).with_value("run", "workers", 2)
    assert (up.command, up.seed, up.workers) == ("divisors", 7, 2)
    assert "seed = 7" in up.resolved
    assert cfg.seed == 0  # original untouched
    with pytest.raises(ConfigError, match="unsigned 64-bit"):
        cfg.with_value("run", "seed", -1)
    with pytest.raises(ConfigError, match="unsigned 64-bit"):
        cfg.with_value("run", "seed", 2**64)
    with pytest.raises(ConfigError, match="workers"):
        cfg.with_value("run", "workers", 0)
    with pytest.raises(ConfigError, match="unknown command"):
        cfg.with_value("run", "command", "bogus")


def test_with_value_replaces_one_scalar():
    cfg = parse_config_text("[run]\ncommand = criticality\n")
    up = cfg.with_value("lab", "d", "3")
    assert up.get("lab", "d") == 3 and cfg.get("lab", "d") == 1
    with pytest.raises(ConfigError, match="unknown key"):
        cfg.with_value("lab", "dims", "3")
    with pytest.raises(ConfigError, match="not a scalar key"):
        cfg.with_value("lab", "cutoffs", "8,16")
    with pytest.raises(ConfigError, match="unsigned 64-bit"):
        cfg.with_value("run", "seed", "-1")


def _stream_of(cfg, calls=None):
    """A stream opener like the CLI writer's: philox_stream(seed, *key), each call listed in calls."""

    def stream(label, *key):
        if calls is not None:
            calls.append((label, *key))
        return philox_stream(cfg.seed, *key)

    return stream


def test_u0_mini_syntax(tmp_path):
    def initial_field(u0, cutoff=4, seed=21):
        cfg = parse_config_text(f"[run]\ncommand = solve\nseed = {seed}\n\n[solver]\ncutoff = {cutoff}\nu0 = {u0}\n")
        calls = []
        f = cfg.initial_field(_stream_of(cfg, calls))
        # only a white datum is drawn, from the u0 stream
        assert calls == ([("u0", 999)] if u0.startswith("white") else []), u0
        return f

    zero = initial_field("zero")
    assert zero.cutoff == 4 and np.all(zero.coeffs == 0)

    mode = initial_field("mode:2:0.5:-0.25")
    assert mode.coeff(2) == 0.5 - 0.25j and mode.mass() == pytest.approx(0.3125)

    w1 = initial_field("white:2.0")
    w2 = initial_field("white:2.0")
    assert np.array_equal(w1.coeffs, w2.coeffs)  # same master seed, same datum
    w3 = initial_field("white:2.0", seed=22)
    assert not np.array_equal(w1.coeffs, w3.coeffs)

    f = make_field(3, [0.1j, 0, 1.0, 0.5, 0, 0, 0.25 - 0.5j])
    path = tmp_path / "datum.csv"
    path.write_text(field_to_csv(f))
    loaded = initial_field(f"csv:{path}", cutoff=3)
    assert loaded.allclose(f, tol=0)

    for bad in ("mode", "mode:x", "white:soon", "csv:/nonexistent/datum.csv", "sawtooth"):
        with pytest.raises(ConfigError, match=r"\[solver\] u0"):
            initial_field(bad)
    with pytest.raises(ConfigError, match=r"\[solver\] u0: datum has cutoff 3, the run needs 4"):
        initial_field(f"csv:{path}")


def test_noise_operator_kinds(tmp_path):
    def noise_operator(noise, cutoff):
        return parse_config_text(f"[run]\ncommand = solve\n\n[solver]\ncutoff = {cutoff}\n\n[noise]\n{noise}\n").noise_operator()

    assert noise_operator("kind = none", 4) is None

    ident = noise_operator("kind = identity", 4)
    assert np.all(ident.multiplier == 1.0)

    bes = noise_operator("kind = bessel\nalpha = 0.75", 8)
    assert np.allclose(bes.multiplier, bessel_operator(8, 0.75).multiplier)

    rng = np.random.default_rng(3)
    mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    op = NoiseOperator(1, matrix=mat)
    path = tmp_path / "op.csv"
    path.write_text(operator_to_csv(op))
    loaded = noise_operator(f"kind = matrix\nmatrix_file = {path}", 1)
    assert loaded.cutoff == 1 and np.array_equal(loaded.matrix, mat)

    with pytest.raises(ConfigError, match="matrix_file"):
        noise_operator("kind = matrix", 4)
    for name, msg in _bad_matrix_files(tmp_path):
        with pytest.raises(ConfigError, match=r"\[noise\] matrix_file: .*" + msg):
            noise_operator(f"kind = matrix\nmatrix_file = {tmp_path / name}", 2)


# raw values: arbitrary short text plus numbers at and past every range edge
_ATOM = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["0", "-1", "0.3", "1.5", "2", "1e-320", "1e308", "1e400", "nan", "inf", "-inf", "1,2", "9" * 30]),
    st.integers(-(2**70), 2**70).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_U0 = st.one_of(
    st.text(max_size=16),
    st.builds(
        lambda kind, parts: ":".join([kind, *parts]),
        st.sampled_from(["zero", "white", "mode", "csv", "sawtooth", ""]),
        st.lists(_ATOM, max_size=4),
    ),
)
# every key but the cutoff, which is drawn from a small range: a valid large cutoff would only allocate
_KEYS = [(sec, key) for sec in SCHEMA for key in SCHEMA[sec] if (sec, key) != ("solver", "cutoff")]


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=120))
def test_parse_config_text_fuzz_ends_in_config_error_or_success(text):
    for body in (text, "[run]\ncommand = solve\n" + text):
        try:
            parse_config_text(body)
        except ConfigError:
            pass


# the minimum K of every "int:K" / "ints:K" key; each is drawn around it as well as from _ATOM
_MINIMUMS = {
    (sec, key): int(low)
    for sec in SCHEMA
    for key, (tag, _) in SCHEMA[sec].items()
    if tag.partition(":")[0] in ("int", "ints") and (low := tag.partition(":")[2])
}


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(COMMANDS),
    st.dictionaries(st.sampled_from(_KEYS), _ATOM, max_size=5),
    st.integers(-3, 6),
    _U0,
    st.dictionaries(st.sampled_from(sorted(_MINIMUMS)), st.integers(-2, 40).map(str), max_size=5),
)
def test_config_builders_fuzz_end_in_config_error_or_success(command, values, cutoff, u0, counts):
    values = {**values, **counts, ("run", "command"): command, ("solver", "cutoff"): str(cutoff), ("solver", "u0"): u0}
    sections: dict = {}
    for (sec, key), raw in values.items():
        sections.setdefault(sec, []).append(f"{key} = {raw}")
    text = "".join(f"[{sec}]\n" + "\n".join(lines) + "\n\n" for sec, lines in sections.items())
    try:
        cfg = parse_config_text(text)
    except ConfigError:
        return
    assert all(min(np.atleast_1d(cfg.get(*key)), default=low) >= low for key, low in _MINIMUMS.items())
    # each builder on its own, so one key's error does not hide another's
    builders = [cfg.solver_config, cfg.xsb_params, cfg.picard_params]
    if cfg.get("noise", "kind") != "matrix":  # bad matrix files have their own cases
        builders.append(cfg.noise_operator)
    if max(cfg.get("lab", "cutoffs"), default=0) <= 64:  # a valid large cutoff would only allocate
        builders.append(cfg.data_alpha)
    for build in builders:
        try:
            build()
        except ConfigError:
            pass
    try:
        assert cfg.initial_field(_stream_of(cfg)).cutoff == cutoff
    except ConfigError:
        pass


def _bad_matrix_files(tmp_path):
    """(file name, expected diagnostic) for malformed `[noise] matrix_file` inputs at cutoff 2."""
    head = "n,k,re,im\n"
    square = lambda ns: "".join(f"{n},{k},1.0,0.0\n" for n in ns for k in ns)
    files = {
        "empty.csv": ("", "expected header"),
        "header_only.csv": (head, "no matrix entries"),
        "short.csv": (head + "-1,-1,1.0\n", "expected 4 fields"),
        "garbled.csv": (head + "0,0,one,0.0\n", "cannot parse"),
        "shifted.csv": (head + square(range(0, 3)), "cover -N..N"),
        "gap.csv": (head + square((-1, 1)), "cover -N..N"),
        "big.csv": (head + square(range(-8, 9)), "cutoff 8, the run needs 2"),
    }
    for name, (body, _) in files.items():
        (tmp_path / name).write_text(body)
    return [("missing.csv", "No such file")] + [(name, msg) for name, (_, msg) in files.items()]


def test_parse_config_closes_its_file(tmp_path):
    path = _cfg(tmp_path, "[run]\ncommand = divisors\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parse_config(path)
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_cli_negative_sum_cutoff_is_config_error(tmp_path, capsys):
    # a negative cutoff used to sum over an empty lattice and exit 0 with lhs = 0.0
    cfg = _cfg(tmp_path, "[run]\ncommand = sums\n\n[lab]\nsum_cutoff = -1\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "wickns: config error: [lab] sum_cutoff: must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_lab_p_accepts_inf():
    base = "[run]\ncommand = criticality\n\n[lab]\np = {}\n"
    assert parse_config_text(base.format("2.5")).lab_p() == 2.5
    assert parse_config_text(base.format("inf")).lab_p() == math.inf
    assert parse_config_text(base.format("infinity")).lab_p() == math.inf
    with pytest.raises(ConfigError, match=r"\[lab\] p"):
        parse_config_text(base.format("many")).lab_p()
    # these used to reach criticality_report and exit 2 with a message naming no key
    for raw in ("0.5", "nan", "-inf"):
        with pytest.raises(ConfigError, match=rf"^\[lab\] p: must lie in \(1, inf\], got '{raw}'$"):
            parse_config_text(base.format(raw)).lab_p()


def test_builders_propagate_cutoff_and_horizon():
    cfg = parse_config_text(
        "[run]\ncommand = picard\nseed = 77\n\n[solver]\ncutoff = 8\nhorizon = 0.25\ndt = 0.015625\n\n"
        "[norms]\nb = 0.4\nbprime = -0.2\nt = 0.25\n"
    )
    scfg = cfg.solver_config()
    assert scfg.cutoff == 8 and scfg.steps == 16
    params = cfg.xsb_params()
    assert params.T == 0.25 and params.b == 0.4 and params.p == 2.0


# ---------------------------------------------------------------------------
# manifests


def test_manifest_round_trip(tmp_path):
    (tmp_path / "a.csv").write_text("n,value\n0,1.0\n")
    man = RunManifest(
        command="divisors",
        seed=5,
        workers=2,
        resolved_config="[run]\ncommand = divisors\n",
        code_version="0.1.0",
        task_seeds={"scan": [5, 0]},
    )
    man.record_output(str(tmp_path), "a.csv")
    man.write(str(tmp_path))
    back = RunManifest.load(str(tmp_path / "manifest.json"))
    assert back.command == "divisors" and back.seed == 5 and back.workers == 2
    assert back.config_hash == man.config_hash
    assert back.outputs[0]["name"] == "a.csv"
    assert back.outputs[0]["sha256"] == sha256_file(str(tmp_path / "a.csv"))
    assert back.task_seeds == {"scan": [5, 0]}


def test_manifest_rejects_tampering(tmp_path):
    man = RunManifest("divisors", 0, 1, "[run]\ncommand = divisors\n", "0.1.0")
    man.write(str(tmp_path))
    body = json.loads((tmp_path / "manifest.json").read_text())

    body["resolved_config"] = "[run]\ncommand = solve\n"
    (tmp_path / "manifest.json").write_text(json.dumps(body))
    with pytest.raises(ValueError, match="config_hash does not match"):
        RunManifest.load(str(tmp_path / "manifest.json"))

    body["schema_version"] = 99
    (tmp_path / "manifest.json").write_text(json.dumps(body))
    with pytest.raises(ValueError, match="unsupported manifest schema"):
        RunManifest.load(str(tmp_path / "manifest.json"))

    (tmp_path / "manifest.json").write_text(json.dumps([body]))
    with pytest.raises(ValueError, match="manifest is not a JSON object"):
        RunManifest.load(str(tmp_path / "manifest.json"))


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda b: {"schema_version": b["schema_version"]},
            "manifest lacks command, seed, workers, resolved_config, code_version, config_hash",
        ),
        (lambda b: {k: v for k, v in b.items() if k != "config_hash"}, "manifest lacks config_hash"),
        (
            lambda b: {**b, "resolved_config": 5},
            "manifest fields of the wrong type: resolved_config (expected str, got int)",
        ),
        (lambda b: {**b, "outputs": 5}, "manifest fields of the wrong type: outputs (expected list, got int)"),
        (
            lambda b: {**b, "outputs": [{"name": 5, "sha256": "0"}], "flags": []},
            "manifest fields of the wrong type: flags (expected dict, got list); "
            "outputs (each entry needs a string name and sha256)",
        ),
    ],
    ids=["schema_version_only", "no_config_hash", "resolved_config_int", "outputs_int", "bad_entry_and_flags"],
)
def test_rerun_of_manifest_missing_fields_is_an_error(tmp_path, capsys, edit, message):
    # these raised TypeError, KeyError or AttributeError, and rerun printed a
    # traceback; a bad outputs list did so only after replaying the whole run
    man = RunManifest("divisors", 0, 1, "[run]\ncommand = divisors\n", "0.1.0")
    man.write(str(tmp_path))
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValueError) as err:
        RunManifest.load(str(path))
    assert str(err.value) == message
    assert main(["rerun", "--manifest", str(path), "--out", str(tmp_path / "replay")]) == 2
    assert capsys.readouterr().err == f"wickns: error: {message}\n"
    assert not (tmp_path / "replay").exists()


def test_writer_writes_a_long_body_whole(tmp_path):
    # a body is written in WRITE_SLICE slices; a long one must land whole
    body = "".join(f"{i},{i / 7!r}\n" for i in range(120_000))
    assert len(body) > 2 * cli.WRITE_SLICE
    w = cli._Writer(str(tmp_path), parse_config_text("[run]\ncommand = divisors\n"))
    w.text("big.csv", body)
    assert (tmp_path / "big.csv").read_text() == body
    assert w.man.outputs[-1]["bytes"] == len(body)


def test_compare_outputs_flags_missing_and_changed(tmp_path):
    old_dir = tmp_path / "old"
    new_dir = tmp_path / "new"
    old_dir.mkdir()
    new_dir.mkdir()
    for name, text in (("a.csv", "x\n"), ("b.csv", "y\n")):
        (old_dir / name).write_text(text)
    man = RunManifest("solve", 0, 1, "cfg", "0.1.0")
    man.record_output(str(old_dir), "a.csv")
    man.record_output(str(old_dir), "b.csv")
    (new_dir / "a.csv").write_text("x\n")  # b.csv missing
    assert compare_outputs(man, str(new_dir)) == ["b.csv"]
    (new_dir / "b.csv").write_text("y-changed\n")
    assert compare_outputs(man, str(new_dir)) == ["b.csv"]
    (new_dir / "b.csv").write_text("y\n")
    assert compare_outputs(man, str(new_dir)) == []


# ---------------------------------------------------------------------------
# CLI: happy paths


def test_cli_criticality_writes_report_and_manifest(tmp_path):
    cfg = _cfg(tmp_path, "[run]\ncommand = criticality\n")
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    assert sorted(os.listdir(out)) == ["manifest.json", "report.json", "resolved_config.ini"]
    rep = _json(out)
    assert rep["classifications"]["snls_sobolev"] == "critical"
    assert rep["checks"] == {}
    # the resolved config beside the outputs reparses cleanly
    resolved = parse_config(os.path.join(out, "resolved_config.ini"))
    assert resolved.command == "criticality"
    # manifest hashes actually cover the written files
    man = RunManifest.load(os.path.join(out, "manifest.json"))
    assert compare_outputs(man, out) == []
    assert {o["name"] for o in man.outputs} == {"resolved_config.ini", "report.json"}


def test_cli_explicit_subcommand_overrides_config_command(tmp_path):
    cfg = _cfg(tmp_path, "[run]\ncommand = solve\n\n[lab]\nlimit = 2000\n")
    out = str(tmp_path / "out")
    assert main(["divisors", "--config", cfg, "--out", out]) == 0
    assert _json(out)["argmax"] == 12


def test_cli_zero_solve_writes_zero_trajectory(tmp_path):
    cfg = _cfg(
        tmp_path,
        "[run]\ncommand = solve\n\n[solver]\ncutoff = 4\ndt = 0.125\nhorizon = 0.5\n\n[noise]\nkind = none\n",
    )
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    rows = _read(out, "trajectory.csv").strip().splitlines()
    assert rows[0] == "t,n,re,im"
    assert len(rows) == 1 + 5 * 9  # five time points, nine modes
    for row in rows[1:]:
        _, _, re, im = row.split(",")
        assert complex(float(re), float(im)) == 0
    rep = _json(out)
    assert rep["failed_at"] is None and rep["mass_final"] == 0.0


def test_cli_same_config_twice_is_byte_identical(tmp_path):
    text = (
        "[run]\ncommand = solve\nseed = 9\n\n"
        "[solver]\ncutoff = 8\ndt = 0.03125\nhorizon = 0.25\nu0 = mode:1:0.3\n\n[noise]\nalpha = 1.0\n"
    )
    cfg = _cfg(tmp_path, text)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", cfg, "--out", out_a]) == 0
    assert main(["run", "--config", cfg, "--out", out_b]) == 0
    for name in ("trajectory.csv", "report.json", "resolved_config.ini"):
        assert _read(out_a, name) == _read(out_b, name)


def test_cli_seed_override_changes_outputs(tmp_path):
    text = "[run]\ncommand = sample-noise\n\n[solver]\ncutoff = 8\ndt = 0.0625\nhorizon = 0.5\n"
    cfg = _cfg(tmp_path, text)
    out_a, out_b, out_c = (str(tmp_path / d) for d in "abc")
    assert main(["run", "--config", cfg, "--out", out_a, "--seed", "5"]) == 0
    assert main(["run", "--config", cfg, "--out", out_b, "--seed", "5"]) == 0
    assert main(["run", "--config", cfg, "--out", out_c, "--seed", "6"]) == 0
    read = lambda d: _read(d, "psi.csv")
    assert read(out_a) == read(out_b)
    assert read(out_a) != read(out_c)
    assert RunManifest.load(os.path.join(out_a, "manifest.json")).seed == 5


def test_cli_out_resolution_order(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("WICKNS_OUT", raising=False)
    cfg = _cfg(tmp_path, "[run]\ncommand = criticality\nout = cfgout\n")

    assert main(["run", "--config", cfg]) == 0
    assert os.path.exists(tmp_path / "cfgout" / "report.json")

    monkeypatch.setenv("WICKNS_OUT", str(tmp_path / "envout"))
    assert main(["run", "--config", cfg]) == 0
    assert os.path.exists(tmp_path / "envout" / "report.json")

    # the flag beats the environment
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "flagout")]) == 0
    assert os.path.exists(tmp_path / "flagout" / "report.json")
    assert not os.path.exists(tmp_path / "envout" / "flagout")


_BLAS_DEFAULT_PROBE = """
import os, sys
import wickns
threads = len(os.listdir("/proc/self/task")) if sys.platform == "linux" else 1
print(os.environ["OPENBLAS_NUM_THREADS"], threads)
"""


def test_import_defaults_openblas_to_one_thread(tmp_path):
    # the pytest process set the default in its own environment, so remove it
    run = _fresh_python(["-c", _BLAS_DEFAULT_PROBE], tmp_path, OPENBLAS_NUM_THREADS=None)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["1", "1"]  # no spinning BLAS helper thread
    # a value the caller set wins
    run = _fresh_python(["-c", _BLAS_DEFAULT_PROBE], tmp_path, OPENBLAS_NUM_THREADS="2")
    assert run.returncode == 0, run.stderr
    assert run.stdout.split()[0] == "2"


# ---------------------------------------------------------------------------
# CLI: exit codes


def test_cli_usage_errors_exit_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing --config
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["defragment", "--config", "x.ini"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    capsys.readouterr()


def test_cli_config_errors_exit_1(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.ini")]) == 1
    assert "wickns: config error:" in capsys.readouterr().err

    cfg = _cfg(tmp_path, "[run]\ncommand = solve\n\n[solver]\ncutof = 8\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "unknown key" in capsys.readouterr().err

    cfg = _cfg(tmp_path, "[run]\ncommand = solve\n", name="neg.ini")
    assert main(["run", "--config", cfg, "--seed", "-3"]) == 1
    assert "unsigned 64-bit" in capsys.readouterr().err
    assert main(["run", "--config", cfg, "--workers", "0"]) == 1
    assert "wickns: config error: [run] workers: must be >= 1, got 0" in capsys.readouterr().err

    # range checks hold for values from the file as well as from the flags
    for line, msg in (("seed = -3", "unsigned 64-bit"), ("workers = -2", "workers: must be >= 1")):
        cfg = _cfg(tmp_path, f"[run]\ncommand = divisors\n{line}\n\n[lab]\nlimit = 100\n", name="range.ini")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert msg in capsys.readouterr().err

    # single-key range checks of the built solver and norm parameters name their key
    for text, msg in (
        ("[run]\ncommand = norms\n\n[norms]\nt = 2.0\n", "[norms] t: T must lie in (0, 1]"),
        ("[run]\ncommand = norms\n\n[norms]\np = 1.0\n", "[norms] p: p must lie in (1, inf)"),
        ("[run]\ncommand = solve\n\n[solver]\ndt = 0.3\nhorizon = 0.5\n", "[solver] dt: dt must divide the horizon"),
        ("[run]\ncommand = picard\n\n[solver]\nhorizon = 1.5\n", "[solver] horizon: T must lie in (0, 1]"),
        ("[run]\ncommand = criticality\n\n[lab]\np = 0.5\n", "[lab] p: must lie in (1, inf], got '0.5'"),
        # tail-mc's own ranges; the first two used to exit 2 naming no key
        ("[run]\ncommand = tail-mc\n\n[lab]\nsamples = 999\n", "[lab] samples: samples must be at least 1000, got 999"),
        ("[run]\ncommand = tail-mc\n\n[lab]\nlambdas = 1.0, 1.2\n", "[lab] lambdas: lambdas must hold at least 3 lambda levels, got 2"),
        ("[run]\ncommand = tail-mc\n\n[lab]\nlambdas = 0, 1, 2\n", "[lab] lambdas: lambdas must be positive multipliers"),
        # the divisor scan's range; it used to exit 2 naming no key, under a flagged manifest
        ("[run]\ncommand = divisors\n\n[lab]\ndelta = 0\n", "[lab] delta: delta must be positive, got 0.0"),
        ("[run]\ncommand = divisors\n\n[lab]\ndelta = -0.5\n", "[lab] delta: delta must be positive, got -0.5"),
        # exponents outside the trilinear window, b past the tail scale, and
        # T/4 off the grid used to exit 2 naming no key, under a flagged manifest
        ("[run]\ncommand = multiplier\n\n[norms]\nb = 0.95\n", "[norms] b, bprime, p: need -1/p < bprime < 0 < b < 1 - 1/p, got b = 0.95"),
        ("[run]\ncommand = tail-mc\n\n[norms]\nb = 0.6\nq = 2\n", "[norms] b: need b < 1 - 1/q = 0.5 for a finite tail scale, got 0.6"),
        ("[run]\ncommand = variance-test\n\n[solver]\ndt = 0.05\nhorizon = 0.25\n", "[solver] dt: horizon/dt must be a multiple of 4"),
    ):
        cfg = _cfg(tmp_path, text, name="keyed.ini")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "keyed")]) == 1, text
        assert f"wickns: config error: {msg}" in capsys.readouterr().err
        assert not (tmp_path / "keyed" / "manifest.json").exists()

    # an empty integer list is rejected before anything is written; multiplier
    # used to die on an IndexError, and the others to pass their checks on no data
    for command, key in (("multiplier", "cutoffs"), ("trilinear", "cutoffs"), ("wick-check", "cutoffs"), ("sums", "k1_values")):
        cfg = _cfg(tmp_path, f"[run]\ncommand = {command}\n\n[lab]\n{key} =\n", name="empty.ini")
        out = tmp_path / f"empty-{command}"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1, command
        assert f"wickns: config error: [lab] {key}: must hold at least one value" in capsys.readouterr().err
        assert not out.exists()

    # a malformed csv: datum names its key and the line
    datum = tmp_path / "short.csv"
    datum.write_text("n,re,im\n-1,0.0,0.0\n0,1.0\n1,0.0,0.0\n")
    cfg = _cfg(tmp_path, f"[run]\ncommand = solve\n\n[solver]\ncutoff = 1\nu0 = csv:{datum}\n", name="datum.ini")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "datum")]) == 1
    assert "wickns: config error: [solver] u0: line 3: expected 3 fields n,re,im, got 2" in capsys.readouterr().err

    # negative cutoffs are rejected by every command that reads them
    for cmd, cutoffs in (("multiplier", "-2, 4"), ("wick-check", "-1"), ("trilinear", "-1, 2")):
        cfg = _cfg(tmp_path, f"[run]\ncommand = {cmd}\n\n[lab]\ncutoffs = {cutoffs}\n", name="cutoffs.ini")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "cutoffs")]) == 1, cmd
        assert "wickns: config error: [lab] cutoffs: must be >= 0" in capsys.readouterr().err

    # the multiplier supremum is 0 at cutoff 0, so no later cutoff has a ratio to it;
    # this used to exit 2 with "float division by zero", naming no key
    cfg = _cfg(tmp_path, "[run]\ncommand = multiplier\n\n[lab]\ncutoffs = 0, 8\n", name="zero.ini")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "zero")]) == 1
    assert "wickns: config error: [lab] cutoffs: 0 may come only last" in capsys.readouterr().err

    # counts of 0 used to exit 2 (the first five) or pass vacuously (the last two)
    for cmd, section, key in (
        ("trilinear", "lab", "ensemble_size"),
        ("variance-test", "lab", "samples"),
        ("criticality", "lab", "d"),
        ("divisors", "lab", "limit"),
        ("picard", "solver", "picard_max_iters"),
        ("wick-check", "lab", "fields"),
        ("gauge-check", "lab", "dt_halvings"),
    ):
        cfg = _cfg(tmp_path, f"[run]\ncommand = {cmd}\n\n[{section}]\n{key} = 0\n", name="count.ini")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "count")]) == 1, cmd
        assert f"wickns: config error: [{section}] {key}: must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "count").exists()

    # (1 + n^2)^(-alpha/2) overflows at alpha = -394, cutoff 6: a config error, and no RuntimeWarning
    for cmd in ("sample-noise", "norms", "tail-mc"):
        cfg = _cfg(tmp_path, f"[run]\ncommand = {cmd}\n\n[solver]\ncutoff = 6\n\n[noise]\nalpha = -394\n", name="alpha.ini")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "alpha")]) == 1, cmd
        assert "wickns: config error: [noise] alpha: -394.0 overflows" in capsys.readouterr().err

    for cmd in ("sample-noise", "picard"):
        for name, msg in _bad_matrix_files(tmp_path):
            cfg = _cfg(
                tmp_path,
                f"[run]\ncommand = {cmd}\n\n[solver]\ncutoff = 2\ndt = 0.0625\nhorizon = 1.0\n\n"
                f"[noise]\nkind = matrix\nmatrix_file = {tmp_path / name}\n",
                name="matrix.ini",
            )
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1, (cmd, name)
            err = capsys.readouterr().err
            assert "wickns: config error: [noise] matrix_file:" in err and msg in err


def test_cli_matrix_file_with_a_repeated_entry_exits_1(tmp_path, capsys):
    # the later value used to overwrite the earlier one without a word
    matrix = tmp_path / "twice.csv"
    matrix.write_text("n,k,re,im\n" + "".join(f"{n},{n},1.0,0.0\n" for n in range(-2, 3)) + "1,1,5.0,0.0\n")
    cfg = _cfg(tmp_path, f"[run]\ncommand = sample-noise\n\n[solver]\ncutoff = 2\n\n[noise]\nkind = matrix\nmatrix_file = {matrix}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert "wickns: config error: [noise] matrix_file: entry n = 1, k = 1 is listed twice\n" in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_error_in_reused_out_leaves_no_stale_manifest(tmp_path, capsys):
    # the config error surfaces only after resolved_config.ini is rewritten; the
    # first run's manifest must not stay beside it, vouching for other files
    out = str(tmp_path / "out")
    good = _cfg(tmp_path, "[run]\ncommand = norms\n\n[norms]\nt = 0.5\n", name="good.ini")
    assert main(["run", "--config", good, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "manifest.json"))
    bad = _cfg(tmp_path, "[run]\ncommand = norms\n\n[norms]\nt = 2.0\n", name="bad.ini")
    assert main(["run", "--config", bad, "--out", out]) == 1
    assert "[norms] t: T must lie in (0, 1]" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "manifest.json"))
    assert "t = 2.0" in _read(out, "resolved_config.ini")


def test_cli_handler_config_error_leaves_no_directory(tmp_path, capsys):
    # these checks run in their command's handler, after the run made its
    # directory and wrote resolved_config.ini; the run removes both again
    for text in (
        "[run]\ncommand = multiplier\n\n[norms]\nb = 0.95\n",
        "[run]\ncommand = tail-mc\n\n[norms]\nb = 0.6\nq = 2\n",
        "[run]\ncommand = variance-test\n\n[solver]\ndt = 0.05\nhorizon = 0.25\n",
    ):
        cfg = _cfg(tmp_path, text, name="handler.ini")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1, text
        assert "wickns: config error:" in capsys.readouterr().err
        assert not out.exists(), text

    # a directory that was there keeps what it held, and loses only what the run created
    out.mkdir()
    (out / "keep.txt").write_text("kept\n")
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert os.listdir(out) == ["keep.txt"]

    # a runtime failure still keeps its partial outputs under a flagged manifest
    cfg = _cfg(tmp_path, VARIANCE_BLOWUP, name="blowup.ini")
    with np.errstate(all="ignore"):
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "blowup")]) == 2
    man = RunManifest.load(str(tmp_path / "blowup" / "manifest.json"))
    assert man.flags == {"error": "every path blew up"}
    assert [o["name"] for o in man.outputs] == ["resolved_config.ini"]
    capsys.readouterr()


def test_cli_grid_substeps_and_data_alpha_are_config_errors(tmp_path, capsys):
    # each used to fail only after work had started: exit 2 "grid too coarse",
    # a ZeroDivisionError traceback, exit 2 "multiplier entries must be finite"
    for text, msg in (
        ("[run]\ncommand = tail-mc\n\n[lab]\nsteps = 8\n", "[lab] steps: must be >= 15, got 8"),
        ("[run]\ncommand = trilinear\n\n[lab]\nsteps = 14\n", "[lab] steps: must be >= 15, got 14"),
        ("[run]\ncommand = norms\n\n[norms]\nwindow_steps = 8\n", "[norms] window_steps: must be >= 15, got 8"),
        ("[run]\ncommand = variance-test\n\n[lab]\nsubsteps = 0\n", "[lab] substeps: must be >= 1, got 0"),
        ("[run]\ncommand = trilinear\n\n[lab]\ndata_alpha = -394\ncutoffs = 6\n", "[lab] data_alpha: -394.0 overflows"),
    ):
        cfg = _cfg(tmp_path, text, name="min.ini")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "min")]) == 1, text
        assert f"wickns: config error: {msg}" in capsys.readouterr().err

    # the minimum itself is a grid of MIN_GRID_POINTS points, which the surrogate accepts
    cfg = _cfg(tmp_path, "[run]\ncommand = norms\n\n[norms]\nwindow_steps = 15\n", name="edge.ini")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "edge")]) == 0

    # a sweep rejects the value before any cell runs
    cfg = _cfg(tmp_path, "[run]\ncommand = tail-mc\n\n[sweep]\naxis = lab.steps\nvalues = 32, 8\n", name="sweep.ini")
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", cfg, "--out", out]) == 1
    assert "wickns: config error: [lab] steps: must be >= 15, got 8" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "cell-00"))


def test_cli_arithmetic_error_is_a_runtime_failure(tmp_path, capsys, monkeypatch):
    def divide(cfg, w):
        return 1.0 / 0.0

    monkeypatch.setitem(cli.HANDLERS, "divisors", divide)
    cfg = _cfg(tmp_path, "[run]\ncommand = divisors\n")
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 2
    assert "wickns: error: float division by zero" in capsys.readouterr().err
    man = RunManifest.load(os.path.join(out, "manifest.json"))
    assert man.flags == {"error": "float division by zero"}

    # an exception without a message still leaves a truthy flag, so the run still exits 2
    def silent(cfg, w):
        raise ValueError()

    monkeypatch.setitem(cli.HANDLERS, "divisors", silent)
    assert main(["run", "--config", cfg, "--out", out]) == 2
    assert "wickns: error: ValueError" in capsys.readouterr().err
    assert RunManifest.load(os.path.join(out, "manifest.json")).flags == {"error": "ValueError"}

    # raised outside a handler, it still exits 2 with a diagnostic, not a traceback
    def overflow(*args):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, "_run_into", overflow)
    assert main(["run", "--config", cfg, "--out", out]) == 2
    assert "wickns: error: math range error" in capsys.readouterr().err


TAIL_NO_USABLE_LEVEL = "[run]\ncommand = tail-mc\n\n[lab]\nsamples = 1000\nsteps = 16\nlambdas = 5, 6, 7\n"


# dt N^2 = 256: every variance path overflows, known only after the ensemble runs
VARIANCE_BLOWUP = "[run]\ncommand = variance-test\n\n[solver]\ncutoff = 64\ndt = 0.0625\nhorizon = 0.25\n\n[lab]\nsamples = 4\n"


def test_cli_runtime_error_exits_2(tmp_path, capsys):
    # a blown-up ensemble surfaces as a runtime error, not a crash
    cfg = _cfg(tmp_path, VARIANCE_BLOWUP)
    out = str(tmp_path / "out")
    with np.errstate(all="ignore"):  # the overflow is what the run reports
        assert main(["run", "--config", cfg, "--out", out]) == 2
    assert "wickns: error: every path blew up" in capsys.readouterr().err
    # the outputs written so far stay on disk under a manifest flagged with the error
    man = RunManifest.load(os.path.join(out, "manifest.json"))
    assert man.flags == {"error": "every path blew up"}
    assert [o["name"] for o in man.outputs] == ["resolved_config.ini"]
    assert compare_outputs(man, out) == []

    # a ladder far above the ensemble median leaves no usable level: known only after the draws
    cfg = _cfg(tmp_path, TAIL_NO_USABLE_LEVEL, name="tail.ini")
    out = str(tmp_path / "tail")
    assert main(["run", "--config", cfg, "--out", out]) == 2
    assert "fewer than 3 usable lambda levels" in capsys.readouterr().err
    man = RunManifest.load(os.path.join(out, "manifest.json"))
    assert man.flags == {"error": "fewer than 3 usable lambda levels (survivals [0.0, 0.0, 0.0])"}
    assert man.task_seeds == {"ensemble": [0, 2]}  # the streams drawn before the failure


@pytest.mark.parametrize("samples, workers", [(4, 1), (2600, 2)])
def test_variance_blowup_prints_no_runtime_warning(tmp_path, samples, workers):
    # 2600 samples are two chunks, so at 2 workers the overflow happens in pool threads
    cfg = _cfg(tmp_path, VARIANCE_BLOWUP.replace("samples = 4", f"samples = {samples}"))
    run = _fresh_python(["-m", "wickns.cli", "run", "--config", cfg, "--out", "out", "--workers", str(workers)], tmp_path)
    assert run.returncode == 2
    assert "wickns: error: every path blew up" in run.stderr
    assert "RuntimeWarning" not in run.stderr


def test_cli_blowup_exits_2_with_flagged_manifest(tmp_path):
    cfg = _cfg(
        tmp_path,
        "[run]\ncommand = solve\n\n[solver]\ncutoff = 4\ndt = 0.125\nhorizon = 0.5\nu0 = mode:1:1e160\n\n"
        "[noise]\nkind = none\n",
    )
    out = str(tmp_path / "out")
    # the blow-up is reported by the run itself, not by numpy overflow warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", "--config", cfg, "--out", out]) == 2
    # partial outputs stay on disk and the manifest carries the flag
    assert os.path.exists(os.path.join(out, "trajectory.csv"))
    man = RunManifest.load(os.path.join(out, "manifest.json"))
    assert man.flags == {"blowup": True}
    assert _json(out)["checks"]["completed"] is False


def test_cli_manifest_lists_every_output_in_creation_order(tmp_path):
    # the writer records each file as it writes it: a finished run and a
    # flagged one both vouch for exactly the files in their directory
    grid = "[solver]\ncutoff = 4\ndt = 0.125\nhorizon = 0.5\n"
    for text, code, names in (
        (f"[run]\ncommand = sample-noise\n\n{grid}", 0, ["resolved_config.ini", "psi.csv", "phi.csv", "report.json"]),
        (
            f"[run]\ncommand = solve\n\n{grid}u0 = mode:1:1e160\n\n[noise]\nkind = none\n",
            2,
            ["resolved_config.ini", "trajectory.csv", "report.json"],
        ),
    ):
        out = tmp_path / names[1]
        assert main(["run", "--config", _cfg(tmp_path, text), "--out", str(out)]) == code
        man = RunManifest.load(str(out / "manifest.json"))
        assert [o["name"] for o in man.outputs] == names
        assert sorted(os.listdir(out)) == sorted([*names, "manifest.json"])
        for o in man.outputs:
            path = str(out / o["name"])
            assert (o["sha256"], o["bytes"]) == (sha256_file(path), os.path.getsize(path))


def test_cli_assert_turns_failed_check_into_exit_3(tmp_path, capsys):
    # at these exponents the multiplier supremum grows with the cutoff
    text = (
        "[run]\ncommand = multiplier\n\n"
        "[norms]\ns = 0.1\nb = 0.74\nbprime = -0.24\np = 4\nq = 2\n\n[lab]\ncutoffs = 16, 32\n"
    )
    cfg = _cfg(tmp_path, text)
    out = str(tmp_path / "plain")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    rep = _json(out)
    assert rep["checks"]["supremum_saturates"] is False
    assert rep["ratios"][-1] > 1.25

    assert main(["run", "--config", cfg, "--out", str(tmp_path / "strict"), "--assert"]) == 3
    assert "assertion failed: supremum_saturates" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: rerun


def test_cli_rerun_reproduces_bytes(tmp_path, monkeypatch):
    monkeypatch.delenv("WICKNS_OUT", raising=False)
    cfg = _cfg(tmp_path, "[run]\ncommand = divisors\n\n[lab]\nlimit = 2000\n")
    out = str(tmp_path / "orig")
    assert main(["run", "--config", cfg, "--out", out]) == 0

    assert main(["rerun", "--manifest", os.path.join(out, "manifest.json")]) == 0
    replay = out + "-rerun"  # default replay directory sits beside the original
    assert _read(replay, "report.json") == _read(out, "report.json")

    explicit = str(tmp_path / "explicit")
    assert main(["rerun", "--manifest", os.path.join(out, "manifest.json"), "--out", explicit]) == 0
    assert os.path.exists(os.path.join(explicit, "report.json"))


def test_cli_rerun_detects_divergence(tmp_path, capsys):
    cfg = _cfg(tmp_path, "[run]\ncommand = divisors\n\n[lab]\nlimit = 2000\n")
    out = str(tmp_path / "orig")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    man_path = os.path.join(out, "manifest.json")
    recorded = _read(man_path)

    # forge a recorded hash: the replay must notice the mismatch
    body = json.loads(recorded)
    rec = next(o for o in body["outputs"] if o["name"] == "report.json")
    rec["sha256"] = "0" * 64
    _write(man_path, json.dumps(body))
    assert main(["rerun", "--manifest", man_path, "--out", str(tmp_path / "replay")]) == 2
    assert "outputs differ: report.json" in capsys.readouterr().err

    # forge the recorded flags: hashes still match, the flags do not
    body = json.loads(recorded)
    body["flags"] = {"blowup": True}
    _write(man_path, json.dumps(body))
    assert main(["rerun", "--manifest", man_path, "--out", str(tmp_path / "replay_flags")]) == 2
    assert capsys.readouterr().err == "rerun: flags differ: recorded {'blowup': True}, replay {}\n"

    # a flagged run replays to the same flags and hashes, but its replay still exits 2
    tail = _cfg(tmp_path, TAIL_NO_USABLE_LEVEL, name="tail.ini")
    assert main(["run", "--config", tail, "--out", str(tmp_path / "tail")]) == 2
    tail_man = os.path.join(str(tmp_path / "tail"), "manifest.json")
    capsys.readouterr()
    assert main(["rerun", "--manifest", tail_man, "--out", str(tmp_path / "tail_replay")]) == 2
    assert capsys.readouterr().err.endswith("rerun: replay exited 2\n")

    # corrupt the embedded config: rejected before any run
    body["resolved_config"] += "# tail\n"
    _write(man_path, json.dumps(body))
    assert main(["rerun", "--manifest", man_path, "--out", str(tmp_path / "replay2")]) == 2
    assert "config_hash does not match" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: sweeps


def test_cli_sweep_alpha_ladder_aggregates_norms(tmp_path):
    cfg = _cfg(
        tmp_path,
        "[run]\ncommand = norms\n\n[solver]\ncutoff = 16\n\n"
        "[sweep]\naxis = noise.alpha\nvalues = 0.1, 0.25, 0.5\n",
    )
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    rows = _read(out, "sweep.csv").strip().splitlines()
    header = rows[0].split(",")
    assert header[:3] == ["index", "value", "exit_code"]
    gcol = header.index("gamma_radonifying")
    gammas = [float(r.split(",")[gcol]) for r in rows[1:]]
    # rougher noise carries more weight at a fixed cutoff
    assert gammas[0] > gammas[1] > gammas[2]
    summary = _json(out, "sweep_summary.json")
    assert summary["axis"] == "noise.alpha"
    assert [c["exit_code"] for c in summary["cells"]] == [0, 0, 0]
    man = RunManifest.load(os.path.join(out, "manifest.json"))
    assert man.command == "sweep:norms"
    # the sweep's wall time spans its cells', which are sealed the same way
    cell_times = [RunManifest.load(os.path.join(out, c["dir"], "manifest.json")).wall_time_s for c in summary["cells"]]
    assert man.wall_time_s >= sum(cell_times) > 0

    # a sweep manifest replays like any other
    assert main(["rerun", "--manifest", os.path.join(out, "manifest.json"), "--out", str(tmp_path / "replay")]) == 0


def test_cli_sweep_single_cell_matches_run(tmp_path):
    run_cfg = _cfg(tmp_path, "[run]\ncommand = divisors\n\n[lab]\nlimit = 2000\n", name="run.ini")
    out_run = str(tmp_path / "run-out")
    assert main(["run", "--config", run_cfg, "--out", out_run]) == 0

    sweep_cfg = _cfg(
        tmp_path,
        "[run]\ncommand = divisors\n\n[lab]\nlimit = 2000\n\n[sweep]\naxis = lab.delta\nvalues = 0.5\n",
        name="sweep.ini",
    )
    out_sweep = str(tmp_path / "sweep-out")
    assert main(["sweep", "--config", sweep_cfg, "--out", out_sweep]) == 0
    cell = os.path.join(out_sweep, "cell-00")
    assert _read(cell, "report.json") == _read(out_run, "report.json")


def test_cli_sweep_failing_cell_is_recorded_and_sweep_continues(tmp_path, capsys):
    # every path blows up at cutoff 64 (a runtime failure), none at cutoff 2
    cfg = _cfg(tmp_path, VARIANCE_BLOWUP + "\n[sweep]\naxis = solver.cutoff\nvalues = 64, 2\n")
    out = str(tmp_path / "out")
    with np.errstate(all="ignore"):
        assert main(["sweep", "--config", cfg, "--out", out]) == 2
    assert RunManifest.load(os.path.join(out, "manifest.json")).flags == {"cells_failed": True}
    rows = _read(out, "sweep.csv").strip().splitlines()
    assert rows[1].startswith("0,64,2,")
    assert rows[2].startswith("1,2,0,")
    # the bad cell never produced a report, the good one did
    assert not os.path.exists(os.path.join(out, "cell-00", "report.json"))
    assert os.path.exists(os.path.join(out, "cell-01", "report.json"))
    assert "sweep cell 0" in capsys.readouterr().err

    # a cell whose built config is out of range records exit 1, and so does the sweep
    cfg = _cfg(tmp_path, "[run]\ncommand = norms\n\n[sweep]\naxis = norms.t\nvalues = 0.5, 2.0\n", name="range.ini")
    out = str(tmp_path / "range")
    assert main(["sweep", "--config", cfg, "--out", out]) == 1
    assert [c["exit_code"] for c in _json(out, "sweep_summary.json")["cells"]] == [0, 1]
    # the flag marks only a runtime failure, so it is false exactly when the sweep does not exit 2
    assert RunManifest.load(os.path.join(out, "manifest.json")).flags == {"cells_failed": False}
    assert "sweep cell 1 (norms.t=2.0): config error: [norms] t: T must lie in (0, 1]" in capsys.readouterr().err

    # a failed --assert check (3) ranks below a runtime failure (2); the last line names the code returned
    # (4 paths at cutoff 2 miss the 1 + t law)
    cfg = _cfg(tmp_path, VARIANCE_BLOWUP + "\n[sweep]\naxis = solver.cutoff\nvalues = 2, 64\n", name="assert.ini")
    out = str(tmp_path / "assert")
    with np.errstate(all="ignore"):
        assert main(["sweep", "--config", cfg, "--out", out, "--assert"]) == 2
    assert [c["exit_code"] for c in _json(out, "sweep_summary.json")["cells"]] == [3, 2]
    assert capsys.readouterr().out.splitlines()[-1] == "sweep: 2 cells over solver.cutoff, worst exit 2"

    # a value that does not parse stops the sweep before any cell runs
    cfg = _cfg(tmp_path, "[run]\ncommand = norms\n\n[sweep]\naxis = norms.t\nvalues = 0.5, abc\n", name="parse.ini")
    out = str(tmp_path / "parse")
    assert main(["sweep", "--config", cfg, "--out", out]) == 1
    assert "wickns: config error: [norms] t:" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "cell-00"))


def test_cli_sweep_into_reused_directory_tabulates_only_this_sweep(tmp_path, capsys):
    # the table used to be re-read from each cell's report.json, so a failed cell's
    # row carried the report an earlier sweep had left in the same directory
    out = str(tmp_path / "out")
    for values, code in (("0.5, 0.25", 0), ("0.5, 2.0", 1)):
        cfg = _cfg(tmp_path, f"[run]\ncommand = norms\n\n[sweep]\naxis = norms.t\nvalues = {values}\n")
        assert main(["sweep", "--config", cfg, "--out", out]) == code
    rows = [r.split(",") for r in _read(out, "sweep.csv").strip().splitlines()]
    assert rows[2][:3] == ["1", "2.0", "1"] and rows[2][3:] == [""] * (len(rows[0]) - 3)
    assert os.path.exists(os.path.join(out, "cell-01", "report.json"))  # the stale file is still there
    assert not os.path.exists(os.path.join(out, "cell-01", "manifest.json"))  # but no manifest vouches for it
    capsys.readouterr()

    # the replay reproduces every recorded output; its one complaint is the failed cell's exit
    replay = str(tmp_path / "replay")
    assert main(["rerun", "--manifest", os.path.join(out, "manifest.json"), "--out", replay]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "rerun: replay exited 1"
    assert compare_outputs(RunManifest.load(os.path.join(out, "manifest.json")), replay) == []


def test_cli_sweep_axis_validation(tmp_path, capsys):
    base = "[run]\ncommand = criticality\n\n[sweep]\n{}\n"
    for block, msg in (
        ("axis = lab.d", "values are required"),
        ("axis = labd\nvalues = 1,2", "expected section.key"),
        ("axis = lab.dims\nvalues = 1,2", "unknown key"),
        ("axis = lab.cutoffs\nvalues = 8,16", "not a scalar key"),
        ("axis = lab.d\nvalues = ,", "[sweep] values: no value in ','"),  # ran 0 cells and exited 0
    ):
        cfg = _cfg(tmp_path, base.format(block), name="sweep.ini")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert msg in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_cli_sweep_tail_mc_over_horizon(tmp_path):
    cfg = _cfg(
        tmp_path,
        "[run]\ncommand = tail-mc\nseed = 31\n\n[solver]\ncutoff = 8\n\n"
        "[noise]\nalpha = 0.75\n\n[norms]\nb = 0.45\nbprime = -0.1\nt = 0.25\n\n"
        "[lab]\nsamples = 1000\nsteps = 16\nlambdas = 1.0,1.05,1.1,1.15,1.2\n\n"
        "[sweep]\naxis = norms.t\nvalues = 0.25, 0.5, 1.0\n",
    )
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    rows = _read(out, "sweep.csv").strip().splitlines()
    header = rows[0].split(",")
    rates = [float(r.split(",")[header.index("rate")]) for r in rows[1:]]
    rsq = [float(r.split(",")[header.index("r_squared")]) for r in rows[1:]]
    assert all(r > 0 for r in rates)
    assert rates[0] > rates[1] > rates[2]  # longer windows decay slower
    assert min(rsq) >= 0.9


def test_cli_worker_count_does_not_change_results(tmp_path):
    text = (
        "[run]\ncommand = tail-mc\nseed = 31\n\n[solver]\ncutoff = 8\n\n"
        "[noise]\nalpha = 0.75\n\n[norms]\nb = 0.45\nbprime = -0.1\nt = 0.25\n\n"
        "[lab]\nsamples = 1000\nsteps = 16\nlambdas = 1.0,1.05,1.1,1.15,1.2\n"
    )
    cfg = _cfg(tmp_path, text)
    out_1, out_3 = str(tmp_path / "w1"), str(tmp_path / "w3")
    assert main(["run", "--config", cfg, "--out", out_1, "--workers", "1"]) == 0
    assert main(["run", "--config", cfg, "--out", out_3, "--workers", "3"]) == 0
    for name in ("tail_fit.csv", "report.json"):
        assert _read(out_1, name) == _read(out_3, name)


def test_cli_sweep_worker_pool_matches_serial(tmp_path):
    cfg = _cfg(
        tmp_path,
        "[run]\ncommand = norms\n\n[solver]\ncutoff = 8\n\n[norms]\nwindow_steps = 16\n\n"
        "[sweep]\naxis = noise.alpha\nvalues = 0.1, 0.5, 1.0\n",
    )
    outs = []
    for workers in ("1", "3"):
        out = tmp_path / f"w{workers}"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--workers", workers]) == 0
        outs.append(
            {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file() and p.name not in ("resolved_config.ini", "manifest.json")
            }
        )
    assert "sweep.csv" in outs[0] and "sweep_summary.json" in outs[0] and "cell-02/report.json" in outs[0]
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# CLI: one smoke run per remaining subcommand


def test_cli_sample_noise_mass_bookkeeping(tmp_path):
    cfg = _cfg(
        tmp_path,
        "[run]\ncommand = sample-noise\nseed = 5\n\n[solver]\ncutoff = 8\ndt = 0.0625\nhorizon = 0.5\n\n"
        "[noise]\nalpha = 0.75\n",
    )
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    rep = _json(out)
    expected = 0.5 * float(np.sum(bessel_operator(8, 0.75).row_l2() ** 2))
    assert rep["mean_final_mass"] == pytest.approx(expected, rel=1e-12)
    assert math.isfinite(rep["final_mass"]) and rep["checks"]["finite_path"] is True
    assert _read(out, "psi.csv").splitlines()[0].strip() == "t,n,re,im"
    assert os.path.exists(os.path.join(out, "phi.csv"))
    assert RunManifest.load(os.path.join(out, "manifest.json")).task_seeds == {"path": [5, 0]}


def test_cli_picard_converges_on_small_datum(tmp_path):
    cfg = _cfg(
        tmp_path,
        "[run]\ncommand = picard\nseed = 3\n\n"
        "[solver]\ncutoff = 4\ndt = 0.015625\nhorizon = 0.25\nu0 = mode:1:0.1\n\n"
        "[noise]\nkind = none\n\n[norms]\nb = 0.3\nbprime = -0.3\nt = 0.25\n",
    )
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    rep = _json(out)
    assert rep["converged"] is True and rep["non_contracting"] is False
    assert rep["contraction_factor"] < 0.05 and rep["checks"]["contraction"] is True
    man = RunManifest.load(os.path.join(out, "manifest.json"))
    assert "noise" not in man.task_seeds and man.flags == {}
    rows = _read(out, "picard_differences.csv").strip().splitlines()
    assert rows[0] == "iteration,difference,ratio"
    assert rows[1].endswith(",")  # no ratio before the second iterate
    assert os.path.exists(os.path.join(out, "trajectory.csv"))


def test_cli_picard_converged_at_once_passes_contraction(tmp_path):
    # a zero datum without noise converges in one iteration, with no ratio and
    # so no contraction factor; the check used to fail and --assert exit 3
    cfg = _cfg(tmp_path, "[run]\ncommand = picard\n\n[solver]\ncutoff = 4\nhorizon = 0.25\n\n[noise]\nkind = none\n")
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out, "--assert"]) == 0
    rep = _json(out)
    assert rep["iterations"] == 1 and rep["converged"] is True and rep["differences"] == [0.0]
    assert rep["contraction_factor"] is None and rep["checks"]["contraction"] is True


def test_cli_picard_not_converged_exits_2_with_flag(tmp_path, capsys):
    # this used to exit 2 with empty flags, so the manifest did not say why
    cfg = _cfg(tmp_path, "[run]\ncommand = picard\n\n[solver]\ncutoff = 8\nu0 = white:0.5\npicard_max_iters = 2\n")
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 2
    assert "picard: runtime failure (see manifest flags)" in capsys.readouterr().err
    assert RunManifest.load(os.path.join(out, "manifest.json")).flags == {"not_converged": True}
    assert _json(out)["converged"] is False


def test_cli_picard_non_finite_stops_with_flag(tmp_path, capsys):
    # a huge datum drives the iterates to nan; this ran all 8 iterations on
    # nan, printed numpy warnings and recorded ratios of 0.0 after each nan
    cfg = _cfg(
        tmp_path,
        "[run]\ncommand = picard\n\n[solver]\ncutoff = 8\ndt = 0.0078125\nhorizon = 0.25\n"
        "u0 = white:1e12\npicard_max_iters = 8\n\n[noise]\nkind = bessel\n",
    )
    out = str(tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", "--config", cfg, "--out", out]) == 2
    assert "RuntimeWarning" not in capsys.readouterr().err
    assert RunManifest.load(os.path.join(out, "manifest.json")).flags == {"non_finite": True, "not_converged": True}
    rows = [r.split(",") for r in _read(out, "picard_differences.csv").splitlines()[1:]]
    assert [float(r[1]) for r in rows[:-1]] == _json(out)["differences"][:-1]
    assert all(math.isfinite(float(r[1])) for r in rows[:-1]) and rows[-1][1] == "nan"
    assert len(rows) == _json(out)["iterations"] < 8


def test_cli_norms_reports_and_checks(tmp_path):
    cfg = _cfg(
        tmp_path,
        "[run]\ncommand = norms\n\n[solver]\ncutoff = 8\nu0 = mode:1:0.5\n\n[noise]\nalpha = 0.75\n\n"
        "[norms]\ns = 0.25\nb = 0.4\nbprime = -0.2\np = 2\nq = 2\nt = 0.5\nwindow_steps = 32\n",
    )
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    rep = _json(out)
    assert rep["checks"] == {"free_flow_factorizes": True}
    assert rep["fourier_lebesgue"] == pytest.approx(0.5 * 2**0.125, rel=1e-12)
    assert rep["gamma_radonifying"] == rep["hilbert_schmidt"]
    assert rep["operator_l2"] == 1.0
    assert rep["free_flow_ratio"] == pytest.approx(rep["window_factor"], rel=1e-8)
    names = [r.split(",")[0] for r in _read(out, "norms.csv").strip().splitlines()[1:]]
    assert names == [
        "fourier_lebesgue",
        "gamma_radonifying",
        "hilbert_schmidt",
        "operator_l2",
        "window_factor",
        "free_flow_ratio",
    ]


def test_cli_wick_check_forms_agree(tmp_path):
    cfg = _cfg(tmp_path, "[run]\ncommand = wick-check\nseed = 2\n\n[lab]\ncutoffs = 4, 8\nfields = 5\n")
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    rep = _json(out)
    assert rep["max_discrepancy"] <= 1e-12 and rep["checks"]["forms_agree"] is True
    rows = _read(out, "wick_check.csv").strip().splitlines()
    assert rows[0] == "cutoff,max_discrepancy_conv,max_discrepancy_split" and len(rows) == 3
    assert RunManifest.load(os.path.join(out, "manifest.json")).task_seeds == {"4": [2, 1, 4], "8": [2, 1, 8]}


def test_cli_gauge_check_first_order(tmp_path):
    cfg = _cfg(
        tmp_path,
        "[run]\ncommand = gauge-check\n\n[solver]\ncutoff = 4\ndt = 0.0625\nhorizon = 0.25\nu0 = mode:1:0.4\n\n"
        "[lab]\ndt_halvings = 3\n",
    )
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    rep = _json(out)
    assert len(rep["orders"]) == 2 and min(rep["orders"]) >= 0.9
    assert rep["checks"]["first_order_gauge_residual"] is True

    # a zero datum makes both flows identically zero; the check must not divide by it
    cfg0 = _cfg(
        tmp_path,
        "[run]\ncommand = gauge-check\n\n[solver]\ncutoff = 4\ndt = 0.0625\nhorizon = 0.25\n\n[lab]\ndt_halvings = 2\n",
        name="zero.ini",
    )
    out0 = str(tmp_path / "out0")
    assert main(["run", "--config", cfg0, "--out", out0]) == 0
    rep0 = _json(out0)
    assert rep0["residuals"] == [0.0, 0.0]
    assert rep0["checks"]["first_order_gauge_residual"] is True


def test_cli_gauge_check_blowup_names_flow_dt_and_time(tmp_path, capsys):
    # the exponential-Euler cubic flow overflows at t = 0.3125 while the Wick flow completes
    cfg = _cfg(tmp_path, "[run]\ncommand = gauge-check\nseed = 8\n\n[solver]\ncutoff = 6\nu0 = white:0.5\n")
    out = str(tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "broadcast" not in err
    msg = "cubic flow blew up after t = 0.3125 at dt = 0.015625"
    assert f"wickns: error: {msg}" in err
    man = RunManifest.load(os.path.join(out, "manifest.json"))
    assert man.flags == {"error": msg}
    assert compare_outputs(man, out) == []


def test_cli_records_u0_stream_for_every_command_reading_u0(tmp_path):
    for cmd in ("solve", "picard", "norms", "gauge-check"):
        for u0, expected in (("white:0.01", {"u0": [4, 999]}), ("mode:1:0.1", {})):
            cfg = _cfg(
                tmp_path,
                f"[run]\ncommand = {cmd}\nseed = 4\n\n[solver]\ncutoff = 2\ndt = 0.015625\nhorizon = 0.25\n"
                f"u0 = {u0}\n\n[noise]\nkind = none\n\n[lab]\ndt_halvings = 2\n",
                name="u0.ini",
            )
            out = str(tmp_path / f"{cmd}-{u0.split(':')[0]}")
            assert main(["run", "--config", cfg, "--out", out]) == 0, (cmd, u0)
            assert RunManifest.load(os.path.join(out, "manifest.json")).task_seeds == expected, (cmd, u0)
    # the recorded stream is the one the datum was drawn from
    datum = sample_white_noise_field(2, 0.01, philox_stream(4, 999))
    assert _json(str(tmp_path / "solve-white"))["mass_initial"] == datum.mass()


_SOLVER = "[solver]\ncutoff = 2\ndt = 0.015625\nhorizon = 0.25\n"
# command -> (toy config body after [run], the task_seeds its manifest records); the i-th runs at seed 5 + i
_TASK_SEEDS = {
    "sample-noise": (_SOLVER, {"path": [5, 0]}),
    "solve": (_SOLVER + "u0 = white:0.01\n", {"noise": [6, 0], "u0": [6, 999]}),
    "picard": (_SOLVER + "u0 = white:0.01\n\n[norms]\nt = 0.25\n", {"noise": [7, 0], "u0": [7, 999]}),
    "norms": (_SOLVER + "u0 = white:0.01\n\n[norms]\nwindow_steps = 16\n", {"u0": [8, 999]}),
    "wick-check": ("[lab]\ncutoffs = 2, 3\nfields = 2\n", {"2": [9, 1, 2], "3": [9, 1, 3]}),
    "gauge-check": (_SOLVER + "u0 = white:0.01\n\n[lab]\ndt_halvings = 2\n", {"u0": [10, 999]}),
    "tail-mc": (_SOLVER + "\n[lab]\nsamples = 1000\nsteps = 16\n", {"ensemble": [11, 2]}),
    "variance-test": (_SOLVER + "\n[lab]\nsamples = 20\n", {"ensemble": [12, 3]}),
    "trilinear": ("[lab]\ncutoffs = 2, 3\nensemble_size = 3\nsteps = 16\n", {"2": [13, 4, 2], "3": [13, 4, 3]}),
    "multiplier": ("[norms]\nb = 0.45\nbprime = -0.05\n\n[lab]\ncutoffs = 2, 3\n", {}),
    "sums": ("[lab]\nsum_cutoff = 64\nk1_values = 64, 128\n", {}),
    "divisors": ("[lab]\nlimit = 100\n", {}),
    "criticality": ("", {}),
}


def test_cli_task_seeds_of_every_command(tmp_path):
    assert sorted(_TASK_SEEDS) == sorted(COMMANDS)
    for seed, (cmd, (body, expected)) in enumerate(_TASK_SEEDS.items(), start=5):
        cfg = _cfg(tmp_path, f"[run]\ncommand = {cmd}\nseed = {seed}\n\n{body}", name=f"{cmd}.ini")
        out = str(tmp_path / cmd)
        assert main(["run", "--config", cfg, "--out", out]) == 0, cmd
        assert RunManifest.load(os.path.join(out, "manifest.json")).task_seeds == expected, cmd


def test_cli_variance_test_tracks_target(tmp_path):
    cfg = _cfg(
        tmp_path,
        "[run]\ncommand = variance-test\nseed = 12\n\n[solver]\ncutoff = 4\ndt = 0.03125\nhorizon = 0.25\n\n"
        "[lab]\nsamples = 8000\nsubsteps = 2\n",
    )
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    rep = _json(out)
    assert rep["max_rel_dev"] < 0.05 and rep["checks"]["variance_tracks_1_plus_t"] is True
    rows = _read(out, "variance.csv").strip().splitlines()
    assert rows[0] == "t,n,variance,target" and len(rows) == 1 + 3 * 9


def test_cli_trilinear_p99_stable(tmp_path):
    cfg = _cfg(
        tmp_path,
        "[run]\ncommand = trilinear\nseed = 4\n\n"
        "[norms]\ns = 0.1\nb = 0.74\nbprime = -0.24\np = 4\nq = 2\nt = 0.5\n\n"
        "[lab]\ncutoffs = 4, 8\nensemble_size = 20\nsteps = 16\ndata_alpha = 0.75\n",
    )
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    rep = _json(out)
    assert all(g < 2.0 for g in rep["p99_growth_factors"])
    assert rep["checks"]["p99_stable_under_doubling"] is True
    header = _read(out, "trilinear.csv").splitlines()[0].strip()
    assert header == "cutoff,count,filtered,mean,p50,p90,p99,max"

    # one cutoff has no doubling to compare, so the check fails as multiplier's does
    one = _cfg(tmp_path, pathlib.Path(cfg).read_text().replace("cutoffs = 4, 8", "cutoffs = 4"), name="one.ini")
    out = str(tmp_path / "one")
    assert main(["run", "--config", one, "--out", out, "--assert"]) == 3
    rep = _json(out)
    assert rep["p99_growth_factors"] == []
    assert rep["checks"]["p99_stable_under_doubling"] is False


def test_cli_sums_recovers_decay_exponent(tmp_path):
    cfg = _cfg(tmp_path, "[run]\ncommand = sums\n")
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    rep = _json(out)
    assert rep["predicted_exponent"] == pytest.approx(-0.6)
    assert rep["fitted_exponent"] == pytest.approx(-0.6, abs=0.1)
    assert rep["checks"]["exponent_matches_rule"] is True


# ---------------------------------------------------------------------------
# CLI: every check can fail

_GRID = "[solver]\ncutoff = 4\ndt = 0.0625\nhorizon = 0.25\n"
# check name -> (command, config body after [run], {name in wickns.cli: stand-in}); under each
# the check reports false, so a check that passes whatever the run computes cannot be added
CHECK_FALSIFIERS = {
    "finite_path": ("sample-noise", _GRID + "\n[noise]\nalpha = -400\n", {}),  # the path overflows
    "completed": ("solve", _GRID + "u0 = mode:1:1e160\n\n[noise]\nkind = none\n", {}),
    "contraction": ("picard", "[solver]\ncutoff = 8\nu0 = white:0.5\npicard_max_iters = 2\n", {}),
    "free_flow_factorizes": (
        "norms",
        _GRID + "u0 = mode:1:0.5\n\n[norms]\nwindow_steps = 16\n",
        {"homogeneous_estimate_check": lambda *args, **kw: 1.01 * homogeneous_estimate_check(*args, **kw)},
    ),
    "forms_agree": ("wick-check", "[lab]\ncutoffs = 4\nfields = 2\n", {"wick_coeffs_block": lambda U: wick_coeffs_block(U) + 1e-9}),
    "first_order_gauge_residual": ("gauge-check", _GRID + "u0 = mode:1:0.4\n\n[lab]\ndt_halvings = 1\n", {}),
    "gaussian_shape": (
        "tail-mc",
        _GRID + "\n[lab]\nsamples = 1000\nsteps = 16\n",
        {"tail_estimate_mc": lambda **kw: replace(tail_estimate_mc(**kw), r_squared=0.5)},
    ),
    "variance_tracks_1_plus_t": ("variance-test", _GRID + "\n[lab]\nsamples = 4\n", {}),
    "p99_stable_under_doubling": ("trilinear", "[lab]\ncutoffs = 2\nensemble_size = 3\nsteps = 16\n", {}),
    "supremum_saturates": ("multiplier", "[norms]\nb = 0.45\nbprime = -0.05\n\n[lab]\ncutoffs = 2\n", {}),
    "exponent_matches_rule": ("sums", "[lab]\nsum_cutoff = 64\nk1_values = 64, 128\n", {}),
    "count_matches_trial_division": ("divisors", "[lab]\nlimit = 100\n", {"divisor_bound_scan": lambda limit, delta: (2.0, 12)}),
    "sqrt3_peak_at_12": (
        "divisors",
        "[lab]\nlimit = 100\n",
        {"divisor_bound_scan": lambda limit, delta: (divisor_count(24) / 24**delta, 24)},
    ),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # finite_path's case overflows on purpose
@pytest.mark.parametrize("name", sorted(CHECK_FALSIFIERS))
def test_cli_every_check_can_fail(tmp_path, monkeypatch, name):
    command, body, stand_ins = CHECK_FALSIFIERS[name]
    for attr, fake in stand_ins.items():
        monkeypatch.setattr(cli, attr, fake)
    out = str(tmp_path / "out")
    assert main(["run", "--config", _cfg(tmp_path, f"[run]\ncommand = {command}\n\n{body}"), "--out", out]) in (0, 2)
    assert _json(out)["checks"][name] is False
