"""Command-line entry point.

Subcommands: run, resume, report, keyterms, validate, fixtures. run and
resume drive the campaign against the simulated platform. Exit codes:
0 success, 1 validation failure, 2 runtime error. All output is
deterministic under a fixed --seed; no subcommand mutates an input file
other than the designated output log.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import analytics, eventlog, fixtures, model
from .model import CampaignError, replace
from .orchestrator import build_simulated_platform, run_campaign

logger = logging.getLogger("campaignkit")


def _default_log_dir() -> Path:
    return Path(os.environ.get("CAMPAIGN_LOG_DIR", "."))


def _valid_config(args) -> Optional[model.CampaignConfig]:
    """The config with --seed applied, or None once its violations are printed."""
    config = model.load_config(args.config)
    if args.seed is not None:
        config = replace(config, random_seed=args.seed)
    violations = model.validate_config(config)
    for violation in violations:
        print(violation, file=sys.stderr)
    return None if violations else config


def cmd_validate(args) -> int:
    config = model.load_config(args.config)
    violations = model.validate_config(config)
    for violation in violations:
        print(violation)
    if violations:
        return 1
    print("config ok")
    return 0


def cmd_run(args) -> int:
    config = _valid_config(args)
    if config is None:
        return 1
    out = args.out or str(_default_log_dir() / "campaign.log")
    platform = build_simulated_platform(config)
    events = run_campaign(config, platform, out, max_hours=args.max_hours)
    print(f"wrote {len(events)} events to {out}")
    return 0


def cmd_resume(args) -> int:
    config = _valid_config(args)
    if config is None:
        return 1
    platform = build_simulated_platform(config)
    events = run_campaign(config, platform, args.log, resume=True, max_hours=args.max_hours)
    print(f"log {args.log} now holds {events[-1].seq if events else 0} events")
    return 0


def _merged_labels(args) -> Optional[dict]:
    if not args.labels:
        return None
    labels_a = analytics.labels_to_map(analytics.read_labels(args.labels[0]))
    if len(args.labels) == 1:
        return labels_a
    labels_b = analytics.labels_to_map(analytics.read_labels(args.labels[1]))
    tiebreak: dict = {}
    if args.tiebreak:
        tiebreak = analytics.labels_to_map(analytics.read_labels(args.tiebreak))
    return analytics.merge_labels(labels_a, labels_b, tiebreak)


def cmd_report(args) -> int:
    events = eventlog.validate_events(eventlog.read_events(args.log))
    labels = _merged_labels(args)
    report = analytics.compute_metrics(events, labels)
    if args.format == "json-lines":
        print(json.dumps(analytics.report_to_dict(report), ensure_ascii=False))
    else:
        print(analytics.render_table(report))
    return 0


def _split_responders(events) -> tuple[list[str], list[str]]:
    """Sorted members who replied, and sorted members who never did."""
    mentioned = {u for users in eventlog.conversation_members(events).values() for u in users}
    repliers = {event.actor for event in eventlog.volunteer_replies(events)}
    return sorted(repliers), sorted(mentioned - repliers)


def cmd_keyterms(args) -> int:
    events = eventlog.validate_events(eventlog.read_events(args.log))
    responders, non_responders = _split_responders(events)

    def read_history(user: str) -> Optional[str]:
        path = Path(args.history) / f"{user}.txt"
        if not path.exists():
            return None
        return path.read_text(encoding="utf-8")

    corpus_a = [h for h in (read_history(u) for u in responders) if h is not None]
    corpus_b = [h for h in (read_history(u) for u in non_responders) if h is not None]
    if len(corpus_a) < 2 or len(corpus_b) < 2:
        print("need history files for at least two responders and two non-responders", file=sys.stderr)
        return 1
    report = analytics.mann_whitney_keyterms(corpus_a, corpus_b, top_fraction=args.top_fraction)
    if args.format == "json-lines":
        print(
            json.dumps(
                {
                    "vocabulary_size": report.vocabulary_size,
                    "responders": [
                        {"term": s.term, "score": s.score}
                        for s in report.group_a[: len(report.key_terms_a)]
                    ],
                    "non_responders": [
                        {"term": s.term, "score": s.score}
                        for s in report.group_b[: len(report.key_terms_b)]
                    ],
                },
                ensure_ascii=False,
            )
        )
    else:
        print(f"vocabulary: {report.vocabulary_size} terms")
        print("responders key terms:")
        for term in report.key_terms_a:
            print(f"  {term}")
        print("non-responders key terms:")
        for term in report.key_terms_b:
            print(f"  {term}")
    return 0


def cmd_fixtures(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    model.dump_config(fixtures.default_config(), str(outdir / "campaign.yaml"))
    (outdir / "strategies.yaml").write_text(
        fixtures._data_text("strategies.yaml"), encoding="utf-8"
    )
    (outdir / "profile_reference.yaml").write_text(
        fixtures._data_text("profile_reference.yaml"), encoding="utf-8"
    )
    reference = fixtures.build_reference_log()
    eventlog.write_events(reference, str(outdir / "reference.log"))
    events, labels_a, labels_b, labels_c = fixtures.build_label_study()
    eventlog.write_events(events, str(outdir / "label_study.log"))
    analytics.write_labels(labels_a, str(outdir / "labels_coder_a.jsonl"))
    analytics.write_labels(labels_b, str(outdir / "labels_coder_b.jsonl"))
    analytics.write_labels(labels_c, str(outdir / "labels_tiebreak.jsonl"))
    history_dir = outdir / "history"
    history_dir.mkdir(exist_ok=True)
    responders, non_responders = _split_responders(reference)
    histories = fixtures.build_history_fixture(
        responders[:40], non_responders[:40], tweets_per_user=200
    )
    for user, text in histories.items():
        (history_dir / f"{user}.txt").write_text(text, encoding="utf-8")
    print(f"fixtures written to {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="campaign", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a campaign against the simulated platform")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, default=None, help="override the config random_seed")
    run.add_argument("--out", default=None, help="output event log (default $CAMPAIGN_LOG_DIR/campaign.log)")
    run.add_argument("--max-hours", type=float, default=None, help="virtual deadline")
    run.set_defaults(func=cmd_run)

    resume = sub.add_parser(
        "resume", help="continue an interrupted run on the simulated platform, appending to its log"
    )
    resume.add_argument("--log", required=True)
    resume.add_argument("--config", required=True)
    resume.add_argument("--seed", type=int, default=None)
    resume.add_argument("--max-hours", type=float, default=None)
    resume.set_defaults(func=cmd_resume)

    report = sub.add_parser("report", help="participation metrics from an event log")
    report.add_argument("--log", required=True)
    report.add_argument("--labels", nargs="*", default=[], help="one or two coder label files")
    report.add_argument("--tiebreak", default=None, help="tiebreaker label file")
    report.add_argument("--format", choices=("table", "json-lines"), default="table")
    report.set_defaults(func=cmd_report)

    keyterms = sub.add_parser("keyterms", help="terms distinguishing responders from non-responders")
    keyterms.add_argument("--log", required=True)
    keyterms.add_argument("--history", required=True, help="directory of <user_id>.txt histories")
    keyterms.add_argument("--top-fraction", type=float, default=0.01)
    keyterms.add_argument("--format", choices=("table", "json-lines"), default="table")
    keyterms.set_defaults(func=cmd_keyterms)

    validate = sub.add_parser("validate", help="check a campaign config")
    validate.add_argument("--config", required=True)
    validate.set_defaults(func=cmd_validate)

    fixtures_cmd = sub.add_parser("fixtures", help="write the shipped fixtures to a directory")
    fixtures_cmd.add_argument("--out", required=True)
    fixtures_cmd.set_defaults(func=cmd_fixtures)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except (CampaignError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
