import hashlib
import json

from nodal_atlas import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_plane(capsys):
    code, out, _ = run_cli(capsys, "count", "--degree", "4", "--nodes", "2")
    assert code == 0
    assert out.strip() == "225"


def test_count_with_oracle(capsys):
    code, out, _ = run_cli(capsys, "count", "--degree", "3", "--nodes", "1", "--oracle")
    assert code == 0
    assert out.strip() == "12"


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
    assert "n=7" in err


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


def test_series_g2_default(capsys):
    code, out, _ = run_cli(capsys, "series", "--g2", "--order", "4")
    assert code == 0
    assert out.strip() == "-1/24, 1, 3, 4, 7"


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
