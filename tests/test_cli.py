import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nodal_atlas import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_plane(capsys):
    code, out, _ = run_cli(capsys, "count", "--degree", "4", "--nodes", "2")
    assert code == 0
    assert out.strip() == "225"


def test_python_dash_m_runs_the_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "nodal_atlas", "count", "--degree", "4", "--nodes", "2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "225\n", "")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_keeps_the_verdict(unbuffered):
    # a reader that closed the pipe at once: each command still returns its
    # own exit code, and nothing is reported on stderr at exit
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    cases = [
        (("check",), 3),
        (("check", "--format", "json"), 3),
        (("series", "--gyz-check", "--channel", "x", "--order", "15"), 3),
        (("partitions", "--r", "10"), 0),
        (("partitions", "--r", "4", "--format", "json"), 0),
        (("zr", "--r", "3"), 0),
        # argparse writes the help into the buffer, flushed by main as by _emit
        (("--help",), 0),
        (("series", "--help"), 0),
        (("count", "--help"), 0),
        (("count", "--nodes"), 2),  # a usage error keeps its message on stderr
    ]
    procs = []
    for argv, want in cases:
        proc = subprocess.Popen([sys.executable, "-m", "nodal_atlas", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        procs.append((argv, want, proc))
    for argv, want, proc in procs:
        _, err = proc.communicate(timeout=60)
        if want == 2:
            assert proc.returncode == 2 and b"error: argument --nodes/-r: expected" in err, argv
        else:
            assert (proc.returncode, err) == (want, b""), argv


def test_count_with_oracle(capsys):
    code, out, _ = run_cli(capsys, "count", "--degree", "3", "--nodes", "1", "--oracle")
    assert code == 0
    assert out.strip() == "12"


def test_count_with_oracle_beyond_bruteforce_range(capsys):
    # the signature-sum oracle covers r > 9, where enumerating set partitions
    # would build millions of objects
    code, out, err = run_cli(capsys, "count", "--degree", "10", "--nodes", "15", "--oracle")
    assert (code, err) == (0, "")
    assert out.strip() == "603124430424597729707"


def test_count_chern_surface(capsys):
    code, out, _ = run_cli(capsys, "count", "--chern", "16,-12,9,3", "--nodes", "1")
    assert code == 0
    assert out.strip() == "27"


def test_count_requires_surface(capsys):
    code, _, err = run_cli(capsys, "count", "--nodes", "2")
    assert code == 2
    assert "surface" in err


def test_count_rejects_both_surfaces(capsys):
    code, _, err = run_cli(capsys, "count", "--nodes", "2", "--degree", "3",
                           "--chern", "1,2,3,4")
    assert code == 2


def test_off_lattice_chern_numbers_are_rejected_before_any_work(capsys, monkeypatch):
    # d + k odd breaks adjunction, s + x off 12Z breaks Noether's formula;
    # neither is a surface, so the input is refused before anything is counted
    def refuse(*args):
        raise AssertionError("counted on off-lattice Chern numbers")

    monkeypatch.setattr(cli, "node_count", refuse)
    monkeypatch.setattr(cli, "count_multisingular", refuse)
    for argv, law in (
        (("count", "--chern", "292,48,-8,55", "--nodes", "4"), "Noether"),
        (("count", "--chern", "1,2,3,9", "--nodes", "2"), "adjunction"),
        (("kazarian", "--type", "A1^2", "--chern", "1,2,3,4"), "adjunction"),
        (("kazarian", "--type", "A1^2", "--chern", "2,2,3,4"), "Noether"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert law in err, argv


def test_integer_arguments_follow_the_asset_cell_rule(capsys, monkeypatch):
    # ASCII digits after an optional minus sign, as in the data assets: int()
    # would read each of these, so they are refused before anything is counted
    def refuse(*args):
        raise AssertionError("counted on a refused integer")

    monkeypatch.setattr(cli, "node_count", refuse)
    chern_message = "error: --chern wants four comma-separated integers, got "
    for argv, flag in (
        (("count", "--chern", "1_6,-12,9,3", "--nodes", "1"), chern_message),
        (("count", "--chern", "\u0661\u0666,-12,9,3", "--nodes", "1"), chern_message),
        (("count", "--chern", "1,x,3,4", "--nodes", "1"), chern_message),
        (("count", "--chern", "16, -12,9,3", "--nodes", "1"), chern_message),
        (("count", "--degree", "4", "--nodes", "\u0662"), "argument --nodes/-r: invalid"),
        (("count", "--degree", "+4", "--nodes", "2"), "argument --degree/-d: invalid"),
        (("zr", "--r", "1_0"), "argument --r: invalid"),
    ):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), argv
        assert flag in err, argv


def test_qn_plane(capsys):
    code, out, _ = run_cli(capsys, "qn", "--p2", "--n", "3")
    assert code == 0
    assert out.strip() == "150d^2 - 444d + 315"


def test_qn_general(capsys):
    code, out, _ = run_cli(capsys, "qn", "--general", "--n", "2")
    assert code == 0
    assert out.strip() == "18d + 15k + 2s + 3x"


def test_qn_oracle_agreement(capsys):
    code, out, _ = run_cli(capsys, "qn", "--p2", "--n", "8", "--oracle")
    assert code == 0


def test_cn(capsys):
    code, out, _ = run_cli(capsys, "cn", "--n", "3")
    assert code == 0
    assert out.strip() == "-30d^2 + 96d - 72"


def test_cn_out_of_range(capsys):
    code, _, err = run_cli(capsys, "cn", "--n", "7")
    assert code == 2
    assert err == "error: --n must be in 1..4, got 7\n"


def test_bell_complete(capsys):
    code, out, _ = run_cli(capsys, "bell", "complete", "--n", "3")
    assert code == 0
    assert out.strip() == "x1^3 + 3*x1*x2 + x3"


def test_bell_partial_needs_blocks(capsys):
    code, _, err = run_cli(capsys, "bell", "partial", "--n", "4")
    assert code == 2
    assert "--blocks" in err


def test_partitions_text(capsys):
    code, out, _ = run_cli(capsys, "partitions", "--r", "3", "--mobius")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0] == "123  mobius=2"


def test_partitions_json_streams_the_whole_payload(capsys):
    # the streamed json is byte for byte one json.dumps of every record, with
    # count the number of records
    from nodal_atlas.partitions import format_partition, iter_partitions, mobius_coefficient

    for r in range(1, 8):
        records = [{"partition": format_partition(pi), "blocks": len(pi),
                    "mobius": str(mobius_coefficient(pi))} for pi in iter_partitions(r)]
        payload = {"command": "partitions", "r": r, "count": len(records), "partitions": records}
        code, out, _ = run_cli(capsys, "partitions", "--r", str(r), "--format", "json")
        assert (code, out) == (0, json.dumps(payload, indent=2) + "\n"), r


def test_partitions_size_is_bounded_before_any_work(capsys, monkeypatch):
    def refuse(r):
        raise AssertionError("enumerated partitions of an out-of-range --r")

    monkeypatch.setattr(cli, "partition_rows", refuse)
    for r in ("11", "0"):
        code, out, err = run_cli(capsys, "partitions", "--r", r)
        assert (code, out) == (2, "")
        assert f"1..{cli.MAX_PARTITIONS_R}" in err

def test_kazarian_form(capsys):
    code, out, _ = run_cli(capsys, "kazarian", "--type", "A1*A2")
    assert code == 0
    assert out.strip() == "-240d - 288k - 72s - 24x"


def test_kazarian_count(capsys):
    code, out, _ = run_cli(capsys, "kazarian", "--type", "A1^2", "--degree", "4")
    assert code == 0
    assert out.strip() == "225"


def test_kazarian_bad_type(capsys):
    code, _, err = run_cli(capsys, "kazarian", "--type", "A9")
    assert code == 2


def test_kazarian_type_refuses_a_zero_exponent(capsys):
    for text, token in (("A1^0*A2", "A1^0"), ("A1^0", "A1^0"), ("A2*A1^00", "A1^00")):
        for surface in ((), ("--degree", "4")):
            code, out, err = run_cli(capsys, "kazarian", "--type", text, *surface)
            assert (code, out) == (2, ""), (text, surface)
            assert err == f"error: cannot parse multisingularity token {token!r}\n"


def test_kazarian_type_is_bounded_before_any_work(capsys, monkeypatch):
    import nodal_atlas.kazarian as kz

    def refuse(r):
        raise AssertionError("enumerated the partitions of a type outside the table")

    monkeypatch.setattr(kz, "iter_partitions", refuse)
    code, out, err = run_cli(capsys, "kazarian", "--type", "A1^11", "--degree", "4")
    assert (code, out) == (2, "")
    assert err == "error: exponent 11 in 'A1^11' exceeds 4, the largest codimension in the table\n"
    # a type that parses but is not tabulated fails the count as it fails the form
    form = run_cli(capsys, "kazarian", "--type", "A1^4*A2^4")
    count = run_cli(capsys, "kazarian", "--type", "A1^4*A2^4", "--degree", "4")
    assert count == form
    assert form[:2] == (2, "")
    assert form[2] == "error: multisingularity type A1^4*A2^4 is not in the table (codimension 12)\n"


def test_plane_degree_is_bounded_before_any_work(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("counted on a plane of degree < 1")

    monkeypatch.setattr(cli, "node_count", refuse)
    monkeypatch.setattr(cli, "count_multisingular", refuse)
    for argv in (
        ("count", "--degree", "0", "--nodes", "2"),
        ("count", "--degree", "-3", "--nodes", "1"),
        ("kazarian", "--type", "A1", "--degree", "-2"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: --degree must be >= 1, got {argv[argv.index('--degree') + 1]}\n"


def test_qn_n_is_bounded_before_any_work(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError(f"computed Q_{n} outside the --n bound")

    for name in ("q_p2_closed", "q_p2_extraction", "q_general"):
        monkeypatch.setattr(cli, name, refuse)
    for n in (str(cli.MAX_QN_N + 1), "300000", "0", "-1"):
        for flag in ("--p2", "--general", "--extraction", "--oracle"):
            code, out, err = run_cli(capsys, "qn", flag, "--n", n)
            assert (code, out) == (2, ""), (flag, n)
            assert err == f"error: --n must be in 1..{cli.MAX_QN_N}, got {n}\n"
    monkeypatch.undo()
    for fmt in ("text", "json", "csv"):
        code, out, _ = run_cli(capsys, "qn", "--n", str(cli.MAX_QN_N), "--format", fmt)
        assert code == 0 and out


def test_qn_refuses_general_with_a_plane_flag_before_any_work(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError("computed Q_n for contradictory flags")

    for name in ("q_p2_closed", "q_p2_extraction", "q_general"):
        monkeypatch.setattr(cli, name, refuse)
    for flags, named in (
        (("--oracle",), "--oracle"),
        (("--extraction",), "--extraction"),
        (("--p2",), "--p2"),
        (("--extraction", "--oracle"), "--extraction, --oracle"),
    ):
        for n in ("3", str(cli.MAX_QN_N + 1)):
            code, out, err = run_cli(capsys, "qn", "--n", n, "--general", *flags)
            assert (code, out) == (2, ""), flags
            assert err == f"error: --general cannot be combined with {named}\n", flags


def test_flags_a_command_would_ignore_are_refused_before_any_work(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("computed with a flag that the command ignores")

    for name in ("eisenstein_g2", "discriminant", "recover_b1", "recover_b2",
                 "gyz_channel_residual", "complete_bell", "partial_bell"):
        monkeypatch.setattr(cli, name, refuse)
    for argv, message in (
        (("series", "--channel", "d", "--order", "3"),
         "--channel is read by --gyz-check only, not by --g2"),
        (("series", "--b1", "--channel", "d"), "--channel is read by --gyz-check only, not by --b1"),
        (("series", "--delta", "--channel", "x", "--order", "99"),
         "--channel is read by --gyz-check only, not by --delta"),
        (("bell", "complete", "--n", "3", "--blocks", "2"),
         "`bell partial` needs --blocks, and `bell complete` takes none"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_library_bounds_are_checked_by_flag_before_any_work(capsys, monkeypatch):
    from nodal_atlas.bell import MAX_R
    from nodal_atlas.chow import Q_MAX
    from nodal_atlas.tables import MAX_I

    def refuse(*args):
        raise AssertionError("computed with an out-of-range argument")

    for name in ("node_count", "node_polynomial", "q_general", "q_p2_closed",
                 "q_p2_extraction", "c_correction_p2", "complete_bell", "partial_bell"):
        monkeypatch.setattr(cli, name, refuse)
    over, q_over = MAX_I + 1, Q_MAX + 1
    cases = [
        (("count", "-d", "3", "--nodes", str(over)), f"--nodes must be in 0..{MAX_I}, got {over}"),
        (("count", "-d", "3", "--nodes", "-1"), f"--nodes must be in 0..{MAX_I}, got -1"),
        (("zr", "--r", "0"), f"--r must be in 1..{MAX_I}, got 0"),
        (("zr", "--r", str(over)), f"--r must be in 1..{MAX_I}, got {over}"),
        (("cn", "--n", "0"), "--n must be in 1..4, got 0"),
        (("cn", "--n", "5"), "--n must be in 1..4, got 5"),
        (("bell", "complete", "--n", str(MAX_R + 1)), f"--n must be in 1..{MAX_R}, got {MAX_R + 1}"),
        (("bell", "partial", "--n", "0", "--blocks", "1"), f"--n must be in 1..{MAX_R}, got 0"),
        (("bell", "partial", "--n", "5", "--blocks", "6"), "--blocks must be in 1..5, got 6"),
        (("bell", "partial", "--n", "5", "--blocks", "0"), "--blocks must be in 1..5, got 0"),
    ] + [
        (("qn", flag, "--n", str(q_over)), f"--n with {flag} must be in 1..{Q_MAX}, got {q_over}")
        for flag in ("--general", "--extraction", "--oracle")
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv
    monkeypatch.undo()
    for argv in (("count", "--degree", "3", "--nodes", str(MAX_I)), ("zr", "--r", "1"),
                 ("cn", "--n", "4"), ("bell", "partial", "--n", "5", "--blocks", "5"),
                 ("qn", "--general", "--n", str(Q_MAX))):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out, argv


def test_series_g2_default(capsys):
    code, out, _ = run_cli(capsys, "series", "--g2", "--order", "4")
    assert code == 0
    assert out.strip() == "-1/24, 1, 3, 4, 7"


def test_series_order_zero_prints_the_constant_term_alone(capsys):
    for which, constant in (("g2", "-1/24"), ("delta", "0"), ("b1", "1"), ("b2", "1")):
        code, out, _ = run_cli(capsys, "series", f"--{which}", "--order", "0")
        assert (code, out) == (0, constant + "\n"), which


def test_series_order_is_bounded_before_any_work(capsys):
    for order in (str(cli.MAX_SERIES_ORDER + 1), "100000", "-1"):
        code, out, err = run_cli(capsys, "series", "--g2", "--order", order)
        assert (code, out) == (2, "")
        assert f"0..{cli.MAX_SERIES_ORDER}" in err
    code, out, _ = run_cli(capsys, "series", "--g2", "--order", str(cli.MAX_SERIES_ORDER))
    assert code == 0
    assert len(out.split(", ")) == cli.MAX_SERIES_ORDER + 1


def test_series_gyz_check_d(capsys):
    code, out, _ = run_cli(capsys, "series", "--gyz-check", "--channel", "d",
                           "--order", "15")
    assert code == 0
    assert out.strip() == "residual: 0"


def test_series_gyz_check_x_order_14(capsys):
    code, out, _ = run_cli(capsys, "series", "--gyz-check", "--channel", "x",
                           "--order", "14")
    assert code == 0
    assert out.strip() == "residual: 0"


def test_series_gyz_check_stops_at_the_table(capsys):
    # like --b1 and --b2, the residual stops at the last table row
    for channel in ("d", "x"):
        for fmt in ("text", "json"):
            argv = ("series", "--gyz-check", "--channel", channel, "--format", fmt)
            code, out, _ = run_cli(capsys, *argv, "--order", "60")
            assert (code, out) == run_cli(capsys, *argv, "--order", "15")[:2]


def test_series_gyz_check_needs_channel(capsys):
    code, _, err = run_cli(capsys, "series", "--gyz-check")
    assert code == 2


def test_json_output_is_deterministic_strings(capsys):
    argv = ("count", "--degree", "5", "--nodes", "3", "--format", "json")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["count"] == "7915"
    assert isinstance(payload["count"], str)


def test_csv_output_has_header(capsys):
    code, out, _ = run_cli(capsys, "qn", "--p2", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,coefficient"
    assert lines[1:] == ["0,27", "1,-45", "2,18"]


def test_ratios_contains_published_cells(capsys):
    code, out, _ = run_cli(capsys, "ratios")
    assert code == 0
    assert "16.43" in out
    assert "19.46" in out
    assert "---" in out


def test_ratios_json_exact_and_rendered(capsys):
    code, out, _ = run_cli(capsys, "ratios", "--format", "json")
    payload = json.loads(out)
    first = payload["rows"][0]
    assert first["rendered"]["D"] == "14.00"
    assert first["exact"]["E"] == "39/2"
    assert first["exact"]["F"] is None


def test_zr_text(capsys):
    code, out, _ = run_cli(capsys, "zr", "--r", "1")
    assert code == 0
    assert out.strip() == "3*d + 2*k + x"


def test_a_crashed_check_is_reported_under_its_own_name(capsys, monkeypatch):
    from nodal_atlas import checks

    def crash(*args):
        raise RuntimeError("severi oracle down")

    monkeypatch.setattr(checks, "severi_degree_p2", crash)
    code, out, err = run_cli(capsys, "check", "--format", "json")
    assert (code, err) == (3, "")
    results = json.loads(out)["results"]
    assert [r["name"] for r in results] == [name for name, _ in checks.ALL_CHECKS]
    crashed = [r for r in results if r["detail"].startswith("raised")]
    assert crashed == [{
        "name": "plane Severi degrees",
        "ok": False,
        "detail": "raised RuntimeError('severi oracle down')",
    }]


def test_check_reports_known_defect(capsys):
    # every identity holds except the one channel residual at the top order,
    # which fails because of an inconsistency in the shipped coefficient table
    code, out, _ = run_cli(capsys, "check")
    assert code == 3
    lines = out.strip().splitlines()
    fails = [l for l in lines if l.startswith("[FAIL]")]
    assert len(fails) == 1
    assert "channel residuals" in fails[0]
    assert "992/3" in fails[0]
    assert "[PASS] node counts: Bell recurrence equals the signature-sum oracle" in lines


def test_data_dir_override(tmp_path, monkeypatch, capsys):
    import shutil
    from pathlib import Path

    import nodal_atlas.kazarian as kz
    import nodal_atlas.tables as tables

    src = Path(tables.__file__).parent / "data"
    shutil.copy(src / "a_forms.json", tmp_path / "a_forms.json")
    shutil.copy(src / "kazarian.json", tmp_path / "kazarian.json")
    monkeypatch.setenv("NODAL_ATLAS_DATA", str(tmp_path))
    tables._rows.cache_clear()
    kz._table.cache_clear()
    try:
        code, out, _ = run_cli(capsys, "count", "--degree", "4", "--nodes", "2")
        assert code == 0
        assert out.strip() == "225"
    finally:
        monkeypatch.delenv("NODAL_ATLAS_DATA")
        tables._rows.cache_clear()
        kz._table.cache_clear()


def _corrupt_rows(rows, how):
    if how == "gap":
        del rows[6]
    elif how == "short":
        rows.pop()
    elif how == "extra":
        rows.append(dict(rows[-1], i="16"))
    elif how == "missing-key":
        del rows[3]["a_tilde"]
    elif how == "signed-row":
        rows[9]["a"][2] = str(int(rows[9]["a"][2]) + 1)
    elif how == "float-cell":  # int() would read 3 and 3 here, a consistent row
        rows[0]["D"], rows[0]["a"][0] = 3.9, 3.2
    elif how == "bool-cell":  # int() would read row 1's index as 1
        rows[0]["i"] = True
    # int() would read these as 1000, 7 and 3; a_tilde is not checked
    elif how == "underscore-cell":
        rows[0]["a_tilde"][0] = "1_000"
    elif how == "spaced-cell":
        rows[6]["i"] = " 7 "
    elif how == "non-ascii-digit":
        rows[2]["i"] = "\u0663"
    elif how == "short-a-tilde":  # zip() in tilde_consistency would drop these
        rows[2]["a_tilde"] = []
    elif how == "long-a-tilde":
        rows[4]["a_tilde"].append("0")
    return rows


@pytest.mark.parametrize("how, row", [
    ("gap", 7), ("short", 15), ("extra", 16), ("missing-key", 4), ("signed-row", 10),
    ("float-cell", 1), ("bool-cell", 1),
    ("underscore-cell", 1), ("spaced-cell", 7), ("non-ascii-digit", 3),
    ("short-a-tilde", 3), ("long-a-tilde", 5),
])
def test_bad_table_data_exits_2(tmp_path, monkeypatch, capsys, how, row):
    import shutil
    from pathlib import Path

    import nodal_atlas.tables as tables

    src = Path(tables.__file__).parent / "data"
    rows = json.loads((src / "a_forms.json").read_text())
    (tmp_path / "a_forms.json").write_text(json.dumps(_corrupt_rows(rows, how)))
    shutil.copy(src / "kazarian.json", tmp_path / "kazarian.json")
    monkeypatch.setenv("NODAL_ATLAS_DATA", str(tmp_path))
    tables._rows.cache_clear()
    try:
        for argv in (("count", "--degree", "4", "--nodes", "2"), ("check",)):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert "a_forms.json" in err
            assert f"row {row}:" in err
    finally:
        monkeypatch.delenv("NODAL_ATLAS_DATA")
        tables._rows.cache_clear()



def test_check_names_a_nonzero_d_channel(tmp_path, monkeypatch, capsys):
    # row 3's D raised by one (and its signed cell with it, so the row
    # loads): the d channel fails, and check says so beside the known x defect
    import shutil

    import nodal_atlas.tables as tables

    src = Path(tables.__file__).parent / "data"
    rows = json.loads((src / "a_forms.json").read_text())
    rows[2]["D"], rows[2]["a"][0] = "691", "1382"
    (tmp_path / "a_forms.json").write_text(json.dumps(rows))
    shutil.copy(src / "kazarian.json", tmp_path / "kazarian.json")
    monkeypatch.setenv("NODAL_ATLAS_DATA", str(tmp_path))
    tables._rows.cache_clear()
    try:
        code, out, _ = run_cli(capsys, "series", "--gyz-check", "--channel", "d", "--order", "5")
        assert (code, out) == (3, "residual: ['0', '0', '0', '1/3', '6', '48']\n")
        code, out, _ = run_cli(capsys, "check")
        assert code == 3
        line = next(l for l in out.splitlines() if "channel residuals" in l)
        head = "[FAIL] generating-identity channel residuals (d, x): d-channel nonzero at [(3, '1/3'), "
        tail = "]; x-channel nonzero at [(15, '992/3')] (known published-table defect)"
        assert line.startswith(head) and line.endswith(tail)
        assert line.count("known") == 1
    finally:
        monkeypatch.delenv("NODAL_ATLAS_DATA")
        tables._rows.cache_clear()


def _corrupt_thom_rows(rows, how):
    if how == "missing-d":
        del rows[0]["d"]
    elif how == "bad-label":
        rows[2]["labels"] = "A9"
    elif how == "duplicate-type":
        rows[4]["labels"] = rows[1]["labels"]
    elif how == "float-cell":
        rows[0]["d"] = 3.7
    elif how == "bool-cell":
        rows[0]["k"] = True
    # int() would read these as 1000, 7 and 3
    elif how == "underscore-cell":
        rows[1]["d"] = "1_000"
    elif how == "spaced-cell":
        rows[2]["x"] = " 7 "
    elif how == "non-ascii-digit":
        rows[0]["d"] = "\u0663"
    return rows


@pytest.mark.parametrize("how, row", [
    ("missing-d", 1), ("bad-label", 3), ("duplicate-type", 5), ("float-cell", 1), ("bool-cell", 1),
    ("underscore-cell", 2), ("spaced-cell", 3), ("non-ascii-digit", 1),
])
def test_bad_thom_data_exits_2(tmp_path, monkeypatch, capsys, how, row):
    import shutil
    from pathlib import Path

    import nodal_atlas.kazarian as kz
    import nodal_atlas.tables as tables

    src = Path(tables.__file__).parent / "data"
    rows = json.loads((src / "kazarian.json").read_text())
    (tmp_path / "kazarian.json").write_text(json.dumps(_corrupt_thom_rows(rows, how)))
    shutil.copy(src / "a_forms.json", tmp_path / "a_forms.json")
    monkeypatch.setenv("NODAL_ATLAS_DATA", str(tmp_path))
    tables._rows.cache_clear()
    kz._table.cache_clear()
    try:
        for argv in (("kazarian", "--type", "A1"), ("check",)):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert "kazarian.json" in err
            assert f"row {row}:" in err
    finally:
        monkeypatch.delenv("NODAL_ATLAS_DATA")
        tables._rows.cache_clear()
        kz._table.cache_clear()

def test_zr_output_digest(capsys):
    # SHA-256 of the zr stdout for r = 1..15, each in text, json and csv, as
    # produced by the signature-power expansion (the reference in test_tables)
    digest = hashlib.sha256()
    for r in range(1, 16):
        for fmt in ("text", "json", "csv"):
            code, out, _ = run_cli(capsys, "zr", "--r", str(r), "--format", fmt)
            assert code == 0
            digest.update(out.encode())
    assert digest.hexdigest() == (
        "98ee1695d3e9a357da42ec5fb0c430ac4a626a7531dc83a0b0b834446796e43c"
    )


# Every README example except `check`, run in each output format.
README_EXAMPLES = (
    ("count", "--degree", "4", "--nodes", "2"),
    ("count", "--chern", "16,-12,9,3", "--nodes", "2"),
    ("count", "--degree", "5", "--nodes", "3", "--oracle"),
    ("zr", "--r", "2"),
    ("qn", "--p2", "--n", "3"),
    ("qn", "--general", "--n", "2"),
    ("qn", "--extraction", "--n", "3"),
    ("cn", "--n", "3"),
    ("cn", "--n", "4"),
    ("bell", "complete", "--n", "4"),
    ("bell", "partial", "--n", "6", "--blocks", "3"),
    ("partitions", "--r", "4", "--mobius"),
    ("kazarian", "--type", "A1*A2"),
    ("kazarian", "--type", "A1^2", "--degree", "4"),
    ("series", "--g2", "--order", "8"),
    ("series", "--delta", "--order", "8"),
    ("series", "--b1", "--order", "15"),
    ("series", "--b2", "--order", "15"),
    ("series", "--gyz-check", "--channel", "d", "--order", "15"),
    ("ratios",),
)


def test_readme_examples_output_digest(capsys):
    # SHA-256 of the stdout of every README example (example outer, format
    # inner), captured before the polynomial classes shared one kernel
    digest = hashlib.sha256()
    for argv in README_EXAMPLES:
        for fmt in ("text", "json", "csv"):
            code, out, err = run_cli(capsys, *argv, "--format", fmt)
            assert (code, err) == (0, ""), argv
            digest.update(out.encode())
    assert digest.hexdigest() == (
        "07aafabd72ca9fcb9a835fbc4b549eaec708f8bc917e47bedd8b1bc6797dc305"
    )


def _series_surface():
    for channel in "dksx":
        for order in range(16):
            yield ("series", "--gyz-check", "--channel", channel, "--order", str(order))
    for which in ("b1", "b2", "delta", "g2"):
        for order in range(61):
            yield ("series", f"--{which}", "--order", str(order))


def test_series_output_digest(capsys):
    # SHA-256 of the stdout of the whole `series` surface (argv outer, format
    # inner): every channel residual through q^15 and every series through
    # q^60, captured while the q-series layer still ran on dense Fraction
    # products and the discriminant was the product formula, then re-captured
    # when `--delta --order 0` came to print the one coefficient 0 (its three
    # runs are the only ones whose output changed)
    digest = hashlib.sha256()
    for argv in _series_surface():
        for fmt in ("text", "json", "csv"):
            code, out, err = run_cli(capsys, *argv, "--format", fmt)
            assert err == "" and code in (0, 3), argv
            digest.update(f"{code}\n".encode())
            digest.update(out.encode())
    assert digest.hexdigest() == (
        "03096c0760e038d8ff7b03826d351ec1e9b6d53d54e48fd5a3d3a5fb5dc68f5d"
    )


# Every form the package prints: Q_n in each surface mode, C_n, and the
# Thom form of each of the twelve tabulated types of codimension <= 4.
THOM_TYPES = ("A1", "A2", "A1^2", "A3", "A1*A2", "A1^3",
              "A4", "D4", "A1*A3", "A2^2", "A1^2*A2", "A1^4")


def _forms_surface():
    for mode in ("--p2", "--general", "--extraction"):
        for n in range(1, 9):
            yield ("qn", mode, "--n", str(n))
    for n in range(1, 5):
        yield ("cn", "--n", str(n))
    for alpha in THOM_TYPES:
        yield ("kazarian", "--type", alpha)


def test_forms_output_digest(capsys):
    # SHA-256 of the stdout of every printed form (argv outer, format inner),
    # captured while PolyD and LinearForm still had printers of their own
    digest = hashlib.sha256()
    for argv in _forms_surface():
        for fmt in ("text", "json", "csv"):
            code, out, err = run_cli(capsys, *argv, "--format", fmt)
            assert (code, err) == (0, ""), argv
            digest.update(out.encode())
    assert digest.hexdigest() == (
        "a2ff1658d079f39ac1e91af93f5b8ab081957eaacf0d1c02b9acb868eb162fa0"
    )


def test_partitions_output_digest(capsys):
    # SHA-256 of the stdout of `partitions --r 8` without and with --mobius
    # (flag outer, format inner), captured while each leaf of the walk was
    # built by a helper and its Moebius coefficient looped over the blocks
    digest = hashlib.sha256()
    for flags in ((), ("--mobius",)):
        for fmt in ("text", "json", "csv"):
            code, out, err = run_cli(capsys, "partitions", "--r", "8", *flags, "--format", fmt)
            assert (code, err) == (0, ""), (flags, fmt)
            digest.update(out.encode())
    assert digest.hexdigest() == (
        "2096b4859aca0f025702bb47b6b8c0d1d6337dd955cffad34cad55f004fa195b"
    )


def test_check_output_digest(capsys):
    # SHA-256 of the exit code and stdout of `check` in each format, captured
    # while the plane diagonal classes were rebuilt per n on every call and
    # the direct log B_1 route multiplied dense Fraction series
    digest = hashlib.sha256()
    for fmt in ("text", "json", "csv"):
        code, out, err = run_cli(capsys, "check", "--format", fmt)
        assert err == "" and code == 3, fmt
        digest.update(f"{code}\n".encode())
        digest.update(out.encode())
    assert digest.hexdigest() == (
        "ae7d3151aee667bd35af938e24ecd739fb8e17c5629dc38d34f772499b64100e"
    )


def _bell_surface():
    for n in range(1, 16):
        yield ("bell", "complete", "--n", str(n))
    for n in (*range(1, 9), 15):
        for blocks in range(1, n + 1):
            yield ("bell", "partial", "--n", str(n), "--blocks", str(blocks))


def _count_surface():
    from nodal_atlas.checks import ORACLE_SURFACES

    for degree in range(1, 7):
        for r in range(16):
            yield ("count", "--degree", str(degree), "--nodes", str(r))
    for chern in ORACLE_SURFACES:
        for r in range(16):
            yield ("count", "--chern", ",".join(map(str, chern)), "--nodes", str(r))
    for r in (1, 5, 9, 12):
        yield ("count", "--degree", "7", "--nodes", str(r), "--oracle")
        yield ("count", "--chern", "12,-10,8,4", "--nodes", str(r), "--oracle")


def _kazarian_count_surface():
    for alpha in THOM_TYPES:
        for surface in (("--degree", "4"), ("--chern", "4,0,0,24")):
            yield ("kazarian", "--type", alpha, *surface)


@pytest.mark.parametrize("surface, want", [
    (_bell_surface, "512819baaae82ad357a1568d85b1dd3f9d318245b771cf93eb78f8d01b559a1b"),
    (_count_surface, "8787baa92fd436acdc695b6e6ea98e13200d5361d880f6177a3f05c42f794a64"),
    (_kazarian_count_surface, "80239934ec0ccd64ba931eb497bd566f937b4af829ac9036fffc3cf0af4bf46f"),
], ids=("bell", "count", "kazarian"))
def test_counts_and_bell_output_digest(capsys, surface, want):
    # SHA-256 of the stdout of every Bell polynomial, node count and
    # multisingularity count above (argv outer, format inner), captured while
    # the CLI built each payload and CSV table in its own subcommand
    digest = hashlib.sha256()
    for argv in surface():
        for fmt in ("text", "json", "csv"):
            code, out, err = run_cli(capsys, *argv, "--format", fmt)
            assert (code, err) == (0, ""), argv
            digest.update(out.encode())
    assert digest.hexdigest() == want


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse lays out help differently in other Python versions")
def test_help_output_digest(capsys, monkeypatch):
    # SHA-256 of the --help text of the top level and of every subcommand at
    # 80 columns, captured while each `series` flag was registered by hand
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for command in ((), ("count",), ("zr",), ("qn",), ("cn",), ("bell",), ("partitions",),
                    ("kazarian",), ("series",), ("ratios",), ("check",)):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*command, "--help"])
        assert exit_info.value.code == 0, command
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == (
        "7aa931f0b5042c221693eec49bd5b3ea3f906607fbbd8200a869e1bd546279df"
    )
