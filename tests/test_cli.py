import hashlib
import json

import pytest
import yaml

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


def test_validate_names_a_missing_key_with_exit_two(tmp_path, capsys):
    raw = small_sim_config().to_dict()
    del raw["bot_identity"]
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: bot_identity: missing required key\n"


@pytest.mark.parametrize("text", ["topics: [unclosed\n", "- just\n- a list\n", ""])
def test_validate_rejects_a_file_that_is_not_a_config_with_exit_two(tmp_path, capsys, text):
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


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


# sha256 of every file ``campaign fixtures`` writes; the history files are
# hashed as one stream, concatenated in sorted file-name order.
FIXTURE_SHA256 = {
    "campaign.yaml": "8b6c9e598362b3e88bf19db189a6687867b364059d8dbc6399f7e262c8349680",
    "strategies.yaml": "1d15f731c8a9b34384effdbf250d332618982f6bdc8d62b1df5cbfdff50eda01",
    "profile_reference.yaml": "236ec9e7ae43d9511d9a21bdf2044f7a3afea4d997d5073687fef95cc7acb21c",
    "reference.log": "5a5f50c129e1fc5208cfe00f0d62e32916f23188d2cfa66ce49eaa0c24331664",
    "label_study.log": "30b117e603e2ee415348c727dafd07a30a3b42be638a87d8b45a026f72ef4ddb",
    "labels_coder_a.jsonl": "0ab311b9a922cf62cca24a1854de3c8c794e58658e20f3049dcd5069bfe03966",
    "labels_coder_b.jsonl": "0e68b76c04f6d58b802d9791bc935d2ef495a6c428c4adbe39c15f54e5f91323",
    "labels_tiebreak.jsonl": "7626f274f25ff5c1987b31b9469faa31093cf0476756eb58edb22b11051f9c8f",
    "history": "2884ad9e5ff35399d5695df6cb9758c640f9db3b0d2ad29d3fe9eb880f8f2859",
}


def test_fixtures_are_byte_identical_to_the_pinned_files(tmp_path, capsys):
    outdir = tmp_path / "fixtures"
    assert main(["fixtures", "--out", str(outdir)]) == 0
    histories = sorted((outdir / "history").iterdir())
    assert len(histories) == 80
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in outdir.iterdir()
        if path.is_file()
    }
    digests["history"] = hashlib.sha256(b"".join(p.read_bytes() for p in histories)).hexdigest()
    assert digests == FIXTURE_SHA256
