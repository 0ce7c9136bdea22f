"""Command-line interface: subcommands, exit codes, stream separation."""

import pytest

from mbsr.cli import main
from tests.conftest import CORPUS_DIR

ASTEROID = str(CORPUS_DIR / "asteroid.mbsr")
MIXED = str(CORPUS_DIR / "mixed.mbsr")
MIXED_FIXED = str(CORPUS_DIR / "mixed_fixed.mbsr")
TRACECHAIN = str(CORPUS_DIR / "tracechain.mbsr")
METRICS10 = str(CORPUS_DIR / "metrics10.mbsr")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- lint ---


def test_lint_clean_corpus_exits_zero(capsys):
    code, out, err = run(capsys, "--corpus", MIXED_FIXED, "lint")
    assert code == 0
    assert "violation" not in out


def test_lint_mixed_corpus_exits_one_and_lists_violations(capsys):
    code, out, err = run(capsys, "--corpus", MIXED, "lint")
    assert code == 1
    assert "R16 violation" in out
    assert "R10 violation" in out
    assert "R2 violation" in out
    assert "TBX violation" in out


def test_lint_prints_summary_per_requirement(capsys):
    code, out, err = run(capsys, "--corpus", MIXED, "lint")
    lines = out.splitlines()
    summaries = [l for l in lines if not l.startswith(" ")]
    assert [l.split()[0] for l in summaries] == ["M-01", "M-02", "M-03", "M-04"]
    assert "R16=V" in summaries[1]


# --- parse ---


def test_parse_prints_slots(capsys):
    code, out, err = run(capsys, "--corpus", ASTEROID, "parse", "L3-EX.1")
    assert code == 0
    assert "pattern: Iso2" in out
    assert "SR2: Spacecraft" in out
    assert "SR2_ref: blk-spacecraft" in out


def test_parse_unknown_id_exits_two(capsys):
    code, out, err = run(capsys, "--corpus", ASTEROID, "parse", "ghost")
    assert code == 2
    assert "error" in err


def test_parse_unparseable_text_exits_one(capsys, tmp_path):
    corpus = tmp_path / "t.mbsr"
    corpus.write_text(
        "[requirement R-1]\ntext = The System shall not exceed 100 kg.\n",
        encoding="utf-8")
    code, out, err = run(capsys, "--corpus", str(corpus), "parse", "R-1")
    assert code == 1
    assert "SR5" in out  # names the slot that stays empty


def test_set_named_all_is_a_load_error(capsys, tmp_path):
    # --scope all means the whole corpus, so a set may not take that id
    corpus = tmp_path / "t.mbsr"
    corpus.write_text(
        "[requirement R-1]\ntext = The System shall run within 1 s.\n\n"
        "[requirement R-2]\ntext = The System shall stop within 2 s.\n\n"
        "[set all]\nmembers = R-1\n", encoding="utf-8")
    code, out, err = run(capsys, "--corpus", str(corpus), "--scope", "all", "lint")
    assert code == 2
    assert out == ""
    assert err == ("error: line 7: [set all] DuplicateIdError: "
                   "id 'all' is reserved for the whole-corpus scope\n")


def test_parse_set_id_is_a_usage_error(capsys):
    # a set has no statement to parse: exit 2 (usage), not 1 (findings)
    code, out, err = run(capsys, "--corpus", TRACECHAIN, "parse", "SET-ALL")
    assert (code, out) == (2, "")
    assert err == "error: 'SET-ALL' is a set; parse takes a requirement id\n"


# --- metrics ---


def test_metrics_prints_csv(capsys):
    code, out, err = run(capsys, "--corpus", METRICS10, "metrics")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("timestamp,scope,type")
    assert lines[1].endswith("10,5,7,7,3,7,7,70.00")


def test_metrics_default_clock_is_fixed(capsys):
    code, out, err = run(capsys, "--corpus", METRICS10, "metrics")
    assert "2000-01-01T00:00:00+00:00" in out


def test_metrics_now_override(capsys):
    code, out, err = run(capsys, "--corpus", METRICS10,
                         "--now", "2026-03-14T12:00:00+00:00", "metrics")
    assert code == 0
    assert out.startswith("timestamp") and "2026-03-14T12:00:00+00:00" in out


def test_metrics_bad_now_exits_two(capsys):
    code, out, err = run(capsys, "--corpus", METRICS10, "--now", "yesterday",
                         "metrics")
    assert code == 2


def test_metrics_history_appends(capsys, tmp_path):
    history = tmp_path / "history.csv"
    run(capsys, "--corpus", METRICS10, "--now", "2026-01-01T00:00:00+00:00",
        "metrics", "--history", str(history))
    code, out, err = run(capsys, "--corpus", METRICS10,
                         "--now", "2026-02-01T00:00:00+00:00",
                         "metrics", "--history", str(history))
    assert code == 0
    lines = history.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 3  # header plus two instances
    assert out.strip().split("\n") == lines


def test_metrics_malformed_history_exits_two(capsys, tmp_path):
    history = tmp_path / "bad.csv"
    history.write_text("not-a-date,all,slot_completeness,1,0,1,1,0,1,1,100.00\n",
                       encoding="utf-8")
    code, out, err = run(capsys, "--corpus", METRICS10, "metrics", "--history", str(history))
    assert code == 2
    assert err.startswith("error: metric history line 1:")
    assert out == ""


def test_metrics_non_utf8_history_exits_two(capsys, tmp_path):
    history = tmp_path / "bad.csv"
    history.write_bytes(b"\xff\n")
    code, out, err = run(capsys, "--corpus", METRICS10, "metrics", "--history", str(history))
    assert (code, out) == (2, "")
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")
    assert history.read_bytes() == b"\xff\n"


# --- trace ---


def test_trace_prints_relations(capsys):
    code, out, err = run(capsys, "--corpus", TRACECHAIN, "trace", "L5-A")
    assert code == 0
    assert "derives_from: L4-A, L3-A" in out
    assert "satisfied_by: blk-controller" in out


def test_trace_depth_option(capsys):
    code, out, err = run(capsys, "--corpus", TRACECHAIN, "trace", "L5-A",
                         "--depth", "1")
    assert "derives_from: L4-A\n" in out


def test_trace_depth_zero_lists_no_derive_links(capsys):
    code, out, err = run(capsys, "--corpus", TRACECHAIN, "trace", "L5-A", "--depth", "0")
    assert code == 0
    assert "derives_from: -\n" in out


def test_trace_negative_depth_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--corpus", TRACECHAIN, "trace", "L5-A", "--depth", "-1"])
    assert exc.value.code == 2
    assert "argument --depth: must be 0 or more, got -1" in capsys.readouterr().err


def test_trace_unknown_root_exits_two(capsys):
    code, out, err = run(capsys, "--corpus", TRACECHAIN, "trace", "ghost")
    assert code == 2


# --- matrix ---


def test_matrix_csv(capsys):
    code, out, err = run(capsys, "--corpus", MIXED, "matrix")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "id,R1,R2,R10,R16,TBX"
    assert "M-02,S,S,S,V,S" in lines


def test_matrix_md(capsys):
    code, out, err = run(capsys, "--corpus", MIXED, "matrix", "--format", "md")
    assert out.startswith("| id | R1 |")
    assert "| M-03 | S | S | V | S | V |" in out


# --- export ---


def test_export_xmi_stdout(capsys):
    code, out, err = run(capsys, "--corpus", ASTEROID, "export",
                         "--format", "xmi")
    assert code == 0
    assert out.startswith("<?xml")
    assert "Id='L3-EX.1'" in out


def test_export_out_file(capsys, tmp_path):
    # global flags like --out go before the subcommand
    target = tmp_path / "dump.xmi"
    code, out, err = run(capsys, "--corpus", ASTEROID, "--out", str(target),
                         "export", "--format", "xmi")
    assert code == 0
    assert out == ""  # data goes to the file, not stdout
    assert f"wrote {target}" in err
    assert target.read_text(encoding="utf-8").startswith("<?xml")


def test_export_reqif_needs_mapping(capsys, tmp_path):
    code, out, err = run(capsys, "--corpus", ASTEROID, "export",
                         "--format", "reqif")
    assert code == 2
    assert "A01" in err

    mapping = tmp_path / "map.txt"
    mapping.write_text(
        "\n".join(f"{k} = Col{k}" for k in
                  ("A01", "A08", "A10", "A28", "A30", "A34", "A38", "A40")),
        encoding="utf-8")
    code, out, err = run(capsys, "--corpus", ASTEROID, "export",
                         "--format", "reqif", "--mapping", str(mapping))
    assert code == 0 and "<REQ-IF" in out


def test_export_reqif_non_utf8_mapping_exits_two(capsys, tmp_path):
    mapping = tmp_path / "map.txt"
    mapping.write_bytes(b"A01 = \xff\n")
    code, out, err = run(capsys, "--corpus", ASTEROID, "export", "--format", "reqif",
                         "--mapping", str(mapping))
    assert (code, out) == (2, "")
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("fmt", ["xmi", "reqif"])
def test_export_of_a_character_xml_forbids_exits_two(capsys, tmp_path, fmt):
    corpus = tmp_path / "t.mbsr"
    corpus.write_text("[requirement R-1]\ntext = The System shall log\x01 data within 1 s.\n",
                      encoding="utf-8")
    code, out, err = run(capsys, "--corpus", str(corpus), "export", "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == ("error: requirement 'R-1': character U+0001 "
                   "cannot be written to XML 1.0\n")


def test_export_csv_custom_columns(capsys):
    code, out, err = run(capsys, "--corpus", ASTEROID, "export",
                         "--format", "csv", "--columns", "id,SR3,A40")
    assert out.strip().split("\n")[0] == "id,SR3,A40"
    assert "L3-EX.1,collect,Functional" in out


@pytest.mark.parametrize("columns", [",,,", "", " "])
def test_export_csv_empty_column_list_is_a_usage_error(capsys, columns):
    code, out, err = run(capsys, "--corpus", TRACECHAIN, "export",
                         "--format", "csv", "--columns", columns)
    assert (code, out) == (2, "")
    assert err == "error: no table columns given\n"


def test_export_md_report(capsys):
    code, out, err = run(capsys, "--corpus", ASTEROID, "export",
                         "--format", "md", "--template", "Overview")
    assert "## Completeness" in out


def test_export_set_review_matrix_is_populated(capsys):
    code, out, err = run(capsys, "--corpus", MIXED, "export",
                         "--format", "md", "--template", "SetReview")
    assert "| M-02 | S | S | S | V | S |" in out


def test_export_mbsr_is_canonical_serialization(capsys):
    code, out, err = run(capsys, "--corpus", ASTEROID, "export",
                         "--format", "mbsr")
    assert code == 0
    assert out.startswith("[element ")


def test_export_mbsr_does_not_stamp_a_loaded_copy(capsys, tmp_path):
    corpus = tmp_path / "copy.mbsr"
    corpus.write_text("[requirement R-1]\ntext = The System shall run within 1 s.\n\n"
                      "[requirement R-2]\ntext = The System shall stop within 2 s.\n\n"
                      "[link lnk-01]\nkind = Copy\nsource = R-2\ntarget = R-1\n",
                      encoding="utf-8")
    code, out, err = run(capsys, "--corpus", str(corpus), "export", "--format", "mbsr")
    assert code == 0
    assert "A14" not in out


def test_export_dot(capsys):
    code, out, err = run(capsys, "--corpus", TRACECHAIN, "export",
                         "--format", "dot")
    assert out.startswith("digraph requirements {")


# --- glossary ---


def test_glossary_listing(capsys):
    code, out, err = run(capsys, "--corpus", ASTEROID, "glossary")
    assert code == 0
    assert "Spacecraft -> blk-spacecraft" in out
    assert "(= SC_Mode)" in out


def test_glossary_check_reports_undefined(capsys):
    code, out, err = run(capsys, "--corpus", MIXED, "glossary", "--check")
    assert code == 1
    assert "M-01: Target_Site" in out
    assert "undefined" in err


def test_glossary_check_clean_corpus(capsys):
    code, out, err = run(capsys, "--corpus", ASTEROID, "glossary", "--check")
    assert code == 0


# --- validate and global behavior ---


def test_validate_reports_counts(capsys):
    code, out, err = run(capsys, "--corpus", ASTEROID, "validate")
    assert code == 0
    assert "5 element(s)" in err
    assert "1 requirement(s)" in err


def test_missing_corpus_file_exits_two(capsys):
    code, out, err = run(capsys, "--corpus", "/no/such/file.mbsr", "validate")
    assert code == 2
    assert "error" in err


def test_invalid_corpus_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.mbsr"
    bad.write_text("[widget w]\nname = W\n", encoding="utf-8")
    code, out, err = run(capsys, "--corpus", str(bad), "validate")
    assert code == 2


def test_config_flag_applies_overrides(capsys, tmp_path):
    cfg = tmp_path / "cat.cfg"
    cfg.write_text("[rule R16]\nenabled = false\n", encoding="utf-8")
    code, out, err = run(capsys, "--corpus", MIXED, "--config", str(cfg), "lint")
    assert "R16" not in out


def test_config_env_fallback(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cat.cfg"
    cfg.write_text("[rule R16]\nenabled = false\n", encoding="utf-8")
    monkeypatch.setenv("MBSR_CONFIG", str(cfg))
    code, out, err = run(capsys, "--corpus", MIXED, "lint")
    assert "R16" not in out


def test_config_flag_beats_env(capsys, tmp_path, monkeypatch):
    flag_cfg = tmp_path / "flag.cfg"
    flag_cfg.write_text("[rule R10]\nenabled = false\n", encoding="utf-8")
    env_cfg = tmp_path / "env.cfg"
    env_cfg.write_text("[rule R16]\nenabled = false\n", encoding="utf-8")
    monkeypatch.setenv("MBSR_CONFIG", str(env_cfg))
    code, out, err = run(capsys, "--corpus", MIXED, "--config", str(flag_cfg),
                         "lint")
    assert "R16=V" in out and "R10" not in out


def test_config_phrase_may_start_or_end_with_a_non_word_character(capsys, tmp_path):
    corpus = tmp_path / "c.mbsr"
    corpus.write_text("[requirement R-1]\n"
                      "text = The System shall log A, B, etc. within 100% of cases.\n",
                      encoding="utf-8")
    cfg = tmp_path / "cat.cfg"
    cfg.write_text("[rule R10]\nphrases = etc., 100%\n", encoding="utf-8")
    code, out, err = run(capsys, "--corpus", str(corpus), "--config", str(cfg), "lint")
    assert code == 1
    assert "R10=V" in out and "superfluous phrase 'etc.' [etc.]" in out


def test_config_automated_rule_without_phrases_exits_two(capsys, tmp_path):
    cfg = tmp_path / "cat.cfg"
    cfg.write_text("[rule R7]\nautomation = Automated\n", encoding="utf-8")
    code, out, err = run(capsys, "--corpus", MIXED, "--config", str(cfg), "lint")
    assert code == 2
    assert err == "error: R7: an automated rule needs a code checker or phrases\n"


def test_strict_upgrades_trace_warning(capsys, tmp_path):
    corpus = tmp_path / "t.mbsr"
    corpus.write_text(
        "[requirement R-1]\ntext = The A shall b C within 1 s.\n\n"
        "[requirement R-2]\ntext = The A shall b C within 2 s.\n\n"
        "[link lnk-1]\nkind = Trace\nsource = R-1\ntarget = R-2\n",
        encoding="utf-8")
    from mbsr import TraceDiscouragedWarning

    with pytest.warns(TraceDiscouragedWarning):
        code, out, err = run(capsys, "--corpus", str(corpus), "validate")
    assert code == 0
    code, out, err = run(capsys, "--corpus", str(corpus), "--strict", "validate")
    assert code == 2
    assert "Trace" in err


def test_usage_error_without_corpus():
    with pytest.raises(SystemExit) as err:
        main(["lint"])
    assert err.value.code == 2
