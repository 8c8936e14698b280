import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from campaignkit import analytics, cli, eventlog, fixtures, model
from campaignkit.cli import main
from campaignkit.orchestrator import build_simulated_platform, run_campaign

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


def test_validate_names_an_unknown_key_and_its_nearest_field_with_exit_two(tmp_path, capsys):
    raw = fixtures.default_config().to_dict()
    raw["group_sise"] = 2
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 2
    expected = f"error: {path}: group_sise: unknown key; did you mean 'group_size'?\n"
    assert capsys.readouterr().err == expected


# (override of the reference profile, error after "simulation.")
MALFORMED_SIMULATION = [
    ({"population": 2.9}, "population: expected int, got float"),
    ({"population": "lots"}, "population: expected int, got str"),
    ({"reply_propensity": "high"}, "reply_propensity: expected float, got str"),
    ({"reply_propensity": {"direct": "x"}}, "reply_propensity.direct: expected float, got str"),
    ({"clock": "wall"}, "clock: expected one of ['virtual'], got 'wall'"),
    ({"popluation": 10}, "popluation: unknown key; did you mean 'population'?"),
    ({"reply_delay": {"min_sec": 5}}, "reply_delay.min_sec: unknown key; did you mean 'min_s'?"),
    (
        {"mixture": [{"weight": 1.0}, {"weight": 1.0, "post_rat": 0.5}]},
        "mixture[1].post_rat: unknown key; did you mean 'post_rate'?",
    ),
    ({"reply_delay": {"min_s": 0}}, "reply_delay: min_s must be at least 1 and at most max_s"),
    (
        {"reply_delay": {"min_s": 600, "max_s": 60}},
        "reply_delay: min_s must be at least 1 and at most max_s",
    ),
    ({"posts_per_minute_limit": 0}, "posts_per_minute_limit: must be at least 1"),
    ({"profile": "nosuch"}, "profile: expected one of ['reference'], got 'nosuch'"),
    *(
        ({"mixture": [{"weight": w}]}, "mixture[0].weight: must be finite, above 0 and at most 100")
        for w in (math.nan, math.inf, 0, 1e9)
    ),
    ({"population": 0}, "population: must be at least 1"),
    ({"population": -1}, "population: must be at least 1"),
    ({"mean_turns": 1e7}, "mean_turns: must be finite and at most 100"),
    ({"mean_turns": math.inf}, "mean_turns: must be finite and at most 100"),
    (
        {"mixture": [{"weight": 1.0, "mean_turns": 1e7}]},
        "mixture[0].mean_turns: must be finite and at most 100",
    ),
]


@pytest.mark.parametrize(
    "override, message", MALFORMED_SIMULATION, ids=[m.split(":")[0] for _, m in MALFORMED_SIMULATION]
)
def test_malformed_simulation_fails_alike_in_validate_run_and_resume(
    tmp_path, capsys, override, message
):
    raw = small_sim_config().to_dict()
    raw["simulation"] = {**raw["simulation"], **override}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False), encoding="utf-8")
    log = tmp_path / "run.log"
    for command in (["validate"], ["run", "--out", str(log)], ["resume", "--log", str(log)]):
        assert main(command + ["--config", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: simulation.{message}\n")
    assert not log.exists()


@pytest.mark.parametrize(
    "text", ["topics: [unclosed\n", "- just\n- a list\n", "", "b: [1, 2\nc: 3\n"]
)
def test_validate_rejects_a_file_that_is_not_a_config_with_exit_two(tmp_path, capsys, text):
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    fresh, kept = tmp_path / "fresh.log", tmp_path / "kept.log"
    kept.write_bytes(b"left as it was\n")
    for command in (["validate"], ["run", "--out", str(fresh)], ["resume", "--log", str(kept)]):
        assert main(command + ["--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {path}: ")
        if text.startswith("b:"):  # libyaml and pure-Python YAML mark the same place
            assert "line 2, column 2" in err
    assert not fresh.exists() and kept.read_bytes() == b"left as it was\n"


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
    three = ["--labels", str(fa), str(fb), str(fa), "--tiebreak", str(fc)]
    assert main(["report", "--log", str(log)] + three) == 2
    assert capsys.readouterr() == ("", "error: --labels takes one or two files, got 3\n")


def test_fixtures_and_keyterms_end_to_end(tmp_path, capsys):
    outdir = tmp_path / "fixtures"
    assert main(["fixtures", "--out", str(outdir)]) == 0
    capsys.readouterr()
    for name in ("campaign.yaml", "strategies.yaml", "reference.log", "labels_coder_a.jsonl"):
        assert (outdir / name).exists()
    # The written config is loadable and valid.
    config = model.load_config(str(outdir / "campaign.yaml"))
    assert model.validate_config(config) == []
    command = ["keyterms", "--log", str(outdir / "reference.log"), "--history", str(outdir / "history")]
    assert main(command) == 0
    out = capsys.readouterr().out
    assert fixtures.PLANTED_HASHTAG in out
    head, non_responders = out.split("non-responders key terms:\n")
    responders = head.split("responders key terms:\n")[1]
    assert main(command + ["--format", "json-lines"]) == 0
    line = json.loads(capsys.readouterr().out)
    assert line["vocabulary_size"] == 35
    assert line["responders"][0] == {"term": fixtures.PLANTED_HASHTAG, "score": 1.0}
    assert [len(line["responders"]), len(line["non_responders"])] == [
        len(responders.splitlines()), len(non_responders.splitlines())
    ]


@pytest.mark.parametrize("top_fraction", ["-0.5", "1.5", "nan"])
def test_keyterms_rejects_a_top_fraction_outside_zero_to_one(tmp_path, capsys, top_fraction):
    outdir = tmp_path / "fixtures"
    assert main(["fixtures", "--out", str(outdir)]) == 0
    capsys.readouterr()
    history = str(outdir / "history")
    # The bound is checked before the log is read: a log that does not exist
    # gets the same error.
    for log in (outdir / "reference.log", tmp_path / "missing.log"):
        command = ["keyterms", "--log", str(log), "--history", history, "--top-fraction", top_fraction]
        assert main(command) == 2
        assert capsys.readouterr() == (
            "", f"error: top_fraction must lie in [0, 1], got {float(top_fraction)}\n"
        )


@pytest.mark.parametrize("side", [0, 1], ids=["responders", "non-responders"])
def test_keyterms_with_fewer_than_two_histories_on_a_side_exits_one(tmp_path, capsys, side):
    outdir = tmp_path / "fixtures"
    assert main(["fixtures", "--out", str(outdir)]) == 0
    capsys.readouterr()
    log, history = outdir / "reference.log", outdir / "history"
    # Keep one history of the side, and every history of the other.
    users = cli._split_responders(eventlog.read_events(str(log)))[side]
    kept = [history / f"{user}.txt" for user in users if (history / f"{user}.txt").exists()]
    assert len(kept) >= 2
    for path in kept[1:]:
        path.unlink()
    assert main(["keyterms", "--log", str(log), "--history", str(history)]) == 1
    assert capsys.readouterr() == (
        "", "need history files for at least two responders and two non-responders\n"
    )


def test_resume_cli(tmp_path, capsys):
    path = _write_config(tmp_path)
    whole, out = tmp_path / "whole.log", tmp_path / "run.log"
    assert main(["run", "--config", str(path), "--seed", "12", "--out", str(whole)]) == 0
    assert main(["run", "--config", str(path), "--seed", "12", "--out", str(out), "--max-hours", "0.5"]) == 0
    cut = out.read_bytes()
    assert 0 < len(cut) < len(whole.read_bytes())
    capsys.readouterr()
    assert main(["resume", "--log", str(out), "--config", str(path), "--seed", "12"]) == 0
    assert out.read_bytes() == whole.read_bytes()
    assert capsys.readouterr().out == f"log {out} now holds {len(eventlog.read_events(str(whole)))} events\n"


def test_resume_with_a_config_that_violates_an_invariant_exits_one(tmp_path, capsys):
    path = _write_config(tmp_path)
    out = tmp_path / "run.log"
    assert main(["run", "--config", str(path), "--seed", "12", "--out", str(out), "--max-hours", "0.5"]) == 0
    cut = out.read_bytes()
    capsys.readouterr()
    invalid = model.replace(model.load_config(str(path)), group_size=0)
    invalid = _write_config(tmp_path, invalid, "invalid.yaml")
    assert main(["resume", "--log", str(out), "--config", str(invalid), "--seed", "12"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "group_size" in captured.err
    assert out.read_bytes() == cut


def test_resume_on_another_seed_exits_two_naming_the_seq(tmp_path, capsys):
    path = _write_config(tmp_path)
    out = tmp_path / "run.log"
    assert main(["run", "--config", str(path), "--seed", "12", "--out", str(out), "--max-hours", "0.5"]) == 0
    cut = out.read_bytes()
    capsys.readouterr()
    assert main(["resume", "--log", str(out), "--config", str(path), "--seed", "99"]) == 2
    assert capsys.readouterr() == ("", "error: resume diverged at seq 1\n")
    assert out.read_bytes() == cut


def test_resume_on_a_platform_that_does_not_replay_exits_two(tmp_path, capsys, monkeypatch):
    path = _write_config(tmp_path)
    out = tmp_path / "run.log"
    assert main(["run", "--config", str(path), "--seed", "12", "--out", str(out), "--max-hours", "0.5"]) == 0
    cut = out.read_bytes()
    capsys.readouterr()
    posted = []

    def live_platform(config):
        platform = build_simulated_platform(config)
        platform.replayable = False
        platform.post = posted.append
        return platform

    monkeypatch.setattr(cli, "build_simulated_platform", live_platform)
    assert main(["resume", "--log", str(out), "--config", str(path), "--seed", "12"]) == 2
    assert capsys.readouterr() == (
        "", "error: cannot resume on SimulatedPlatform: it does not replay its stream\n"
    )
    assert posted == [] and out.read_bytes() == cut


@pytest.mark.parametrize("hours", ["nan", "inf", "-1"])
def test_a_max_hours_that_is_not_a_finite_number_at_least_0_exits_two(hours, tmp_path, capsys):
    path = _write_config(tmp_path)
    log = tmp_path / "run.log"
    log.write_bytes(b"an existing log\n")
    for command in (["run", "--out", str(log)], ["resume", "--log", str(log)]):
        assert main(command + ["--config", str(path), "--seed", "12", "--max-hours", hours]) == 2
        assert capsys.readouterr() == (
            "", f"error: max_hours must be a finite number of hours, at least 0: got {float(hours)}\n"
        )
        assert log.read_bytes() == b"an existing log\n"
        assert not (tmp_path / "run.log.resume").exists()


def test_validate_reports_a_malformed_template_with_exit_one(tmp_path, capsys):
    config = small_sim_config()
    spec = model.replace(config.strategies[0], call_to_action="Join us { now {mentions}")
    path = _write_config(tmp_path, model.replace(config, strategies=(spec,) + config.strategies[1:]))
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr() == (
        "strategies[0].call_to_action: malformed template (unexpected '{' in field name)\n", ""
    )


# Templates built from the characters a format string gives meaning to.
_TEMPLATES = st.lists(
    st.sampled_from(["{", "}", "!", ":", "[", "]", ".", "topic", "mentions", "r", "x", "0", " "]), max_size=8
).map("".join)


@settings(max_examples=120, deadline=None)
@given(
    call=_TEMPLATES, followup=_TEMPLATES, quote=st.none() | _TEMPLATES,
    group_size=st.integers(0, 4), timeout_s=st.integers(-1, 7200),
)
def test_a_config_that_validates_runs_and_one_that_does_not_is_refused(
    call, followup, quote, group_size, timeout_s
):
    base = small_sim_config(groups=1, population=50)
    spec = model.replace(base.strategies[0], call_to_action=call, followups=(followup,), solidarity_quote=quote)
    config = model.replace(
        base, strategies=(spec,), group_size=group_size,
        partial_groups=model.PartialGroupPolicy(timeout_s=timeout_s),
    )
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "campaign.log"
        if not model.validate_config(config):
            run_campaign(config, build_simulated_platform(config), str(out))  # aborts allowed
            return
        path = _write_config(Path(tmp), config)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["run", "--config", str(path), "--out", str(out)])
        assert code in (1, 2) and stderr.getvalue() and not out.exists()


def test_bad_log_is_a_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.log"
    bad.write_text("not json\n")
    assert main(["report", "--log", str(bad)]) == 2


def test_a_log_that_is_not_utf8_exits_two_naming_its_line(tmp_path, capsys):
    path = _write_config(tmp_path)
    log = tmp_path / "run.log"
    assert main(["run", "--config", str(path), "--seed", "12", "--out", str(log), "--max-hours", "0.5"]) == 0
    first, second, rest = log.read_bytes().split(b"\n", 2)
    log.write_bytes(b"\n".join([first, second.replace(b"BOT", b"B\xffT"), rest]))
    bad = log.read_bytes()
    capsys.readouterr()
    resume = ["resume", "--config", str(path), "--seed", "12"]
    for command, error in ((["report"], "line 2: not valid UTF-8"), (resume, "resume diverged at seq 2")):
        assert main(command + ["--log", str(log)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert log.read_bytes() == bad


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
    "campaign.yaml": "b233ba4639028ec2ef769c1d50e798d9faa340efff36ac2768e382b3fcf83d91",
    "strategies.yaml": "057259b89c34dcc6c5e0326aa21bb276aec1a97fde26cc814d02c0ccd9f13725",
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


# sha256 of ``campaign report`` stdout, (table, json-lines), for each input.
# The file names are those ``campaign fixtures`` writes, plus two made from
# them: an empty log and the seed-5 campaign.
REPORT_SHA256 = {
    ("reference.log",): (
        "52414315960324cace8489bda4947ffb266ca2d0ecc22049ccd186b2fc6a00e0",
        "5bd6f5a6fa1384ffd646b7cd3af63ba0da0aff06f7b151b122ac31678785ca48",
    ),
    (
        "label_study.log", "--labels", "labels_coder_a.jsonl", "labels_coder_b.jsonl",
        "--tiebreak", "labels_tiebreak.jsonl",
    ): (
        "e2a8a7b58807eb5157e93bd4d25fd02db4745bb64b1927c1d66f24ab6e31dcbc",
        "6956ac8525a4706e83994795e7c0da624c0a1f9b4a4d3ce276a9c3310790bc82",
    ),
    ("label_study.log", "--labels", "labels_coder_a.jsonl"): (
        "f9adff31c30a8f6abfe27ec39d3eaf94bae1e5a61524d186ba53aae07c6742a2",
        "9d72fe7a991b1d18c2fb94fdf7aa29fc267f62db180c34aca9a30ff12bbe21f2",
    ),
    ("empty.log",): (
        "be2796a1bb8735235aa838f2b899b63e1cfbfa965bee5e57e18b06a18563d9c3",
        "db1c9d9be61883c9c561e43ba74f3299b1fb189b2fa87916ab61d604721ce83d",
    ),
    ("seed5.log",): (
        "ddd2c15637a882975f8a4e590ebf65f2e841b70c80d5d6513a6f5a56f00bde95",
        "5c02ba99daf520a56d24770d1e42355337259a3c24d1e1ae368ccae1106dd05a",
    ),
}


@pytest.fixture(scope="module")
def report_inputs(tmp_path_factory, small_campaign):
    outdir = tmp_path_factory.mktemp("report_inputs")
    assert main(["fixtures", "--out", str(outdir)]) == 0
    (outdir / "empty.log").write_text("")
    reference = (outdir / "reference.log").read_text(encoding="utf-8").splitlines(keepends=True)
    (outdir / "blank_arm.log").write_text(
        "".join(
            line.replace('"strategy":"direct"', '"strategy":""')
            if '"conv":"direct-0000"' in line else line
            for line in reference
        ),
        encoding="utf-8",
    )
    (outdir / "seed5.log").write_bytes(small_campaign[2].read_bytes())
    return outdir


@pytest.mark.parametrize("args", list(REPORT_SHA256))
def test_report_output_is_byte_identical_to_the_pin(report_inputs, monkeypatch, capsys, args):
    monkeypatch.chdir(report_inputs)
    capsys.readouterr()
    digests = []
    for fmt in ("table", "json-lines"):
        assert main(["report", "--log", *args, "--format", fmt]) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest())
    assert tuple(digests) == REPORT_SHA256[args]


def test_report_refuses_a_log_whose_call_has_an_empty_strategy(report_inputs, capsys):
    # The reference log with conversation direct-0000's strategy blanked: its
    # call, the log's first record, names no arm, so no report can count it.
    capsys.readouterr()
    assert main(["report", "--log", str(report_inputs / "blank_arm.log")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "record 1 (seq 1): outbound message missing strategy" in captured.err
