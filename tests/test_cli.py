import hashlib
import json

import pytest

from campaignkit import analytics, eventlog, fixtures, model
from campaignkit.cli import main

from conftest import small_sim_config


def _write_config(tmp_path, config=None, name="config.yaml"):
    path = tmp_path / name
    model.dump_config(config or small_sim_config(seed=33, groups=2, population=400), str(path))
    return path


def test_validate_ok(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert main(["validate", "--config", str(path)]) == 0
    assert "config ok" in capsys.readouterr().out


def test_validate_reports_violations_with_exit_one(tmp_path, capsys):
    config = small_sim_config()
    identity = model.replace(config.bot_identity, is_declared_bot=False)
    path = _write_config(tmp_path, model.replace(config, bot_identity=identity))
    assert main(["validate", "--config", str(path)]) == 1
    assert "is_declared_bot" in capsys.readouterr().out


def test_run_twice_is_byte_identical(tmp_path):
    path = _write_config(tmp_path)
    out_a = tmp_path / "a.log"
    out_b = tmp_path / "b.log"
    assert main(["run", "--config", str(path), "--seed", "12", "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(path), "--seed", "12", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_run_does_not_mutate_config(tmp_path):
    path = _write_config(tmp_path)
    before = hashlib.sha256(path.read_bytes()).hexdigest()
    main(["run", "--config", str(path), "--out", str(tmp_path / "x.log")])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == before


def test_run_rejects_invalid_config(tmp_path, capsys):
    config = small_sim_config()
    path = _write_config(tmp_path, model.replace(config, group_size=0))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.log")]) == 1


def test_report_table_shows_reference_rates(tmp_path, capsys, reference_log):
    log = tmp_path / "reference.log"
    eventlog.write_events(reference_log, str(log))
    assert main(["report", "--log", str(log)]) == 0
    out = capsys.readouterr().out
    assert "81%" in out and "21%" in out


def test_report_json_format(tmp_path, capsys, reference_log):
    log = tmp_path / "reference.log"
    eventlog.write_events(reference_log, str(log))
    assert main(["report", "--log", str(log), "--format", "json-lines"]) == 0
    payload = json.loads(capsys.readouterr().out)
    by_arm = {a["strategy"]: a for a in payload["arms"]}
    assert by_arm["direct"]["reply_rate"] == pytest.approx(204 / 252)


def test_report_with_label_files(tmp_path, capsys):
    events, la, lb, lc = fixtures.build_label_study()
    log = tmp_path / "study.log"
    eventlog.write_events(events, str(log))
    fa, fb, fc = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
    analytics.write_labels(la, str(fa))
    analytics.write_labels(lb, str(fb))
    analytics.write_labels(lc, str(fc))
    assert (
        main(
            ["report", "--log", str(log), "--labels", str(fa), str(fb), "--tiebreak", str(fc)]
        )
        == 0
    )
    assert "On-Topic Volunteers" in capsys.readouterr().out


def test_fixtures_and_keyterms_end_to_end(tmp_path, capsys):
    outdir = tmp_path / "fixtures"
    assert main(["fixtures", "--out", str(outdir)]) == 0
    capsys.readouterr()
    for name in ("campaign.yaml", "strategies.yaml", "reference.log", "labels_coder_a.jsonl"):
        assert (outdir / name).exists()
    # The written config is loadable and valid.
    config = model.load_config(str(outdir / "campaign.yaml"))
    assert model.validate_config(config) == []
    assert (
        main(["keyterms", "--log", str(outdir / "reference.log"), "--history", str(outdir / "history")])
        == 0
    )
    out = capsys.readouterr().out
    assert fixtures.PLANTED_HASHTAG in out


def test_resume_cli(tmp_path, capsys):
    path = _write_config(tmp_path)
    out = tmp_path / "run.log"
    assert main(["run", "--config", str(path), "--out", str(out), "--max-hours", "0.1"]) == 0
    first = len(eventlog.read_events(str(out)))
    assert main(["resume", "--log", str(out), "--config", str(path), "--seed", "99"]) == 0
    assert len(eventlog.read_events(str(out))) >= first
    assert eventlog.validate_events(eventlog.read_events(str(out)))


def test_bad_log_is_a_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.log"
    bad.write_text("not json\n")
    assert main(["report", "--log", str(bad)]) == 2


def test_keyterms_rejects_a_log_that_does_not_validate(tmp_path, capsys):
    orphan = model.CampaignEvent(
        seq=1, ts=1, kind=model.EventKind.INBOUND_REPLY, actor="a",
        conversation_id="c1", message_id="r1", in_reply_to="m404", text="hi",
    )
    log = tmp_path / "orphan.log"
    eventlog.write_events([orphan], str(log))
    for command in (["keyterms", "--history", str(tmp_path)], ["report"]):
        assert main(command + ["--log", str(log)]) == 2
        assert "reply references unknown message" in capsys.readouterr().err
