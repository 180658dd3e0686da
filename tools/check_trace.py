#!/usr/bin/env python3
"""Validate a gpsched Chrome trace-event file.

Checks, in order:
  1. strict JSON parse; top level is an object with a "traceEvents"
     list;
  2. every event has name/ph/pid/tid/ts, "X" events a dur >= 0, and
     "b"/"e" events an id;
  3. timestamps are monotonically non-decreasing over non-metadata
     events (gpsched sorts on export, so out-of-order events mean a
     writer bug);
  4. per (pid, tid), "X" (complete) events nest properly: a span
     starting inside another must end inside it too (queue-wait is
     emitted as async "b"/"e" precisely because it may not nest);
  5. async "b"/"e" pairs balance per (cat, id);
  6. every name given with --require has at least one "X" event.

Usage:
  check_trace.py [--require NAME]... TRACE.json
                                   validate a trace file
  check_trace.py --self-test       run the embedded pass/fail samples

Exit status 0 on a valid trace, 1 on any violation (messages on
stderr).
"""

import json
import sys

REQUIRED_KEYS = ("name", "ph", "pid", "tid", "ts")


def fail(msg):
    return ["check_trace: " + msg]


def validate(root, required=()):
    """Returns a list of error strings; empty means valid. Each name
    in `required` must have at least one complete ("X") event."""
    errors = []
    if not isinstance(root, dict):
        return fail("top level must be an object, got %s" %
                    type(root).__name__)
    events = root.get("traceEvents")
    if not isinstance(events, list):
        return fail('"traceEvents" must be a list')

    last_ts = None
    # (pid, tid) -> stack of (name, start, end) open X intervals.
    open_spans = {}
    # (cat, id) -> balance counter for async pairs.
    async_balance = {}

    for index, event in enumerate(events):
        where = "event %d" % index
        if not isinstance(event, dict):
            errors += fail("%s: not an object" % where)
            continue
        missing = [key for key in REQUIRED_KEYS if key not in event]
        if missing:
            errors += fail("%s: missing %s" % (where, missing))
            continue
        ph = event["ph"]
        name = event["name"]
        where = "event %d (%s %r)" % (index, ph, name)
        if ph == "M":
            continue  # metadata carries no timeline semantics
        ts = event["ts"]
        if not isinstance(ts, (int, float)):
            errors += fail("%s: non-numeric ts" % where)
            continue
        if last_ts is not None and ts < last_ts:
            errors += fail("%s: ts %s < previous %s (timestamps "
                           "must be monotonic)" % (where, ts, last_ts))
        last_ts = ts

        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors += fail("%s: X event needs dur >= 0, got %r" %
                               (where, dur))
                continue
            key = (event["pid"], event["tid"])
            stack = open_spans.setdefault(key, [])
            # Retire spans that ended before this one starts.
            while stack and stack[-1][2] <= ts:
                stack.pop()
            if stack and ts + dur > stack[-1][2]:
                errors += fail(
                    "%s: [%s, %s] overlaps enclosing span %r "
                    "[%s, %s] without nesting (pid %s tid %s)" %
                    (where, ts, ts + dur, stack[-1][0], stack[-1][1],
                     stack[-1][2], key[0], key[1]))
            stack.append((name, ts, ts + dur))
        elif ph == "b":
            if "id" not in event:
                errors += fail("%s: async begin without id" % where)
                continue
            key = (event.get("cat"), event["id"])
            async_balance[key] = async_balance.get(key, 0) + 1
        elif ph == "e":
            if "id" not in event:
                errors += fail("%s: async end without id" % where)
                continue
            key = (event.get("cat"), event["id"])
            balance = async_balance.get(key, 0) - 1
            if balance < 0:
                errors += fail("%s: async end without begin "
                               "(cat %r id %r)" % (where, key[0],
                                                   key[1]))
            async_balance[key] = balance
        else:
            errors += fail("%s: unsupported ph %r" % (where, ph))

    for (cat, pair_id), balance in sorted(
            async_balance.items(), key=lambda item: repr(item)):
        if balance > 0:
            errors += fail("async begin without end (cat %r id %r)" %
                           (cat, pair_id))
    complete = {event.get("name") for event in events
                if isinstance(event, dict) and event.get("ph") == "X"}
    for name in required:
        if name not in complete:
            errors += fail("no complete event named %r" % name)
    return errors


def check_file(path, required):
    try:
        with open(path) as fh:
            root = json.load(fh)
    except (OSError, ValueError) as err:
        print("check_trace: %s: %s" % (path, err), file=sys.stderr)
        return 1
    errors = validate(root, required)
    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        print("check_trace: %s: %d violation(s)" %
              (path, len(errors)), file=sys.stderr)
        return 1
    events = root["traceEvents"]
    print("check_trace: %s OK (%d events)" % (path, len(events)))
    return 0


def self_test():
    def ev(ph, name, ts, dur=None, pid=1, tid=1, eid=None, cat=None):
        out = {"name": name, "ph": ph, "pid": pid, "tid": tid,
               "ts": ts}
        if dur is not None:
            out["dur"] = dur
        if eid is not None:
            out["id"] = eid
        if cat is not None:
            out["cat"] = cat
        return out

    passes = {
        "nested spans": [ev("X", "compile", 0, 100),
                         ev("X", "coarsen", 10, 20),
                         ev("X", "refine", 40, 30)],
        "metadata first": [ev("M", "process_name", 0),
                           ev("X", "compile", 5, 10)],
        "async pair": [ev("b", "queue-wait", 0, eid=1, cat="queue"),
                       ev("e", "queue-wait", 9, eid=1, cat="queue")],
        "different tids overlap": [ev("X", "compile", 0, 100, tid=1),
                                   ev("X", "compile", 10, 100,
                                      tid=2)],
        "empty": [],
    }
    failures = {
        "non-monotonic ts": [ev("X", "a", 10, 5), ev("X", "b", 3, 2)],
        "negative dur": [ev("X", "a", 0, -1)],
        "missing keys": [{"ph": "X", "ts": 0}],
        "overlap same tid": [ev("X", "a", 0, 50),
                             ev("X", "b", 25, 50)],
        "unbalanced async": [ev("b", "w", 0, eid=7, cat="queue")],
        "unknown phase": [ev("q", "a", 0)],
    }
    ok = True
    for title, events in passes.items():
        if validate({"traceEvents": events}):
            print("self-test: expected PASS for %r" % title,
                  file=sys.stderr)
            ok = False
    for title, events in failures.items():
        if not validate({"traceEvents": events}):
            print("self-test: expected FAIL for %r" % title,
                  file=sys.stderr)
            ok = False
    if not validate([]) or not validate({"traceEvents": 3}):
        print("self-test: malformed top level must fail",
              file=sys.stderr)
        ok = False
    spans = {"traceEvents": [ev("X", "cli.parse", 0, 5),
                             ev("b", "cli.check", 6, eid=2, cat="q"),
                             ev("e", "cli.check", 7, eid=2, cat="q")]}
    if validate(spans, ["cli.parse"]) or \
            not validate(spans, ["cli.parse", "cli.check"]):
        print("self-test: --require must accept only complete events",
              file=sys.stderr)
        ok = False
    print("self-test: %s" % ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    args = argv[1:]
    required = []
    while len(args) >= 2 and args[0] == "--require":
        required.append(args[1])
        args = args[2:]
    if len(args) != 1 or args[0].startswith("--"):
        print(__doc__, file=sys.stderr)
        return 2
    return check_file(args[0], required)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
