#!/usr/bin/env python3
"""gpsched_cli's memory is bounded by its window, not by the corpus.

Runs the CLI (--simulate, --jobs 2) over 2000 and over 20000 renamed
copies of the first loop of a .ddg file. The copies share one loop
shape, so the result cache holds a single entry and nothing that
grows with unique shapes can hide a per-loop leak. Each run's peak
RSS comes from os.wait4; the 20000-copy run may exceed the 2000-copy
run by at most --slack-mb. Both reports must hold every row. (A
forked child's peak includes this interpreter's resident size, about
10 MB, so that is the floor of both figures.)

    check_stream_memory.py CLI DDG WORKDIR [--slack-mb MB]
"""

import argparse
import json
import os
import sys


def first_block(path):
    """The lines of the first `ddg ... end` block of path."""
    block = []
    with open(path) as f:
        for line in f:
            words = line.split("#", 1)[0].split()
            if not words:
                continue
            if words[0] == "ddg" or block:
                block.append(line.split("#", 1)[0].rstrip())
            if words[0] == "end" and block:
                return block
    sys.exit(f"no ddg block in {path}")


def write_copies(block, count, path):
    header = block[0].split()
    with open(path, "w") as f:
        for i in range(count):
            f.write(f"ddg copy_{i} {header[2]}\n")
            f.write("\n".join(block[1:]) + "\n")


def peak_rss_mb(argv):
    """Runs argv; returns (exit status, peak RSS in MB) of that child.
    Under AddressSanitizer the quarantine of freed blocks (256 MB by
    default) would grow with the corpus, so it is switched off."""
    env = dict(os.environ)
    env["ASAN_OPTIONS"] = ":".join(
        filter(None, [env.get("ASAN_OPTIONS"), "quarantine_size_mb=0"]))
    pid = os.fork()
    if pid == 0:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.execve(argv[0], argv, env)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("cli")
    parser.add_argument("ddg")
    parser.add_argument("workdir")
    parser.add_argument("--slack-mb", type=float, default=4.0)
    args = parser.parse_args()
    os.makedirs(args.workdir, exist_ok=True)
    block = first_block(args.ddg)
    counts = (2000, 20000)
    path = {n: os.path.join(args.workdir, f"copies{n}") for n in counts}
    for n in counts:
        write_copies(block, n, path[n] + ".ddg")
    # A child's ru_maxrss includes what it inherited at fork, so both
    # runs are measured before this process reads any report.
    peaks = {}
    for n in counts:
        status, peaks[n] = peak_rss_mb(
            [args.cli, "--simulate", "--jobs", "2", "--json",
             path[n] + ".json", path[n] + ".ddg"])
        if status != 0:
            sys.exit(f"{n} copies: gpsched_cli exited {status}")
    for n in counts:
        with open(path[n] + ".json") as f:
            rows = json.load(f)["loops"]
        if len(rows) != n or any("simOk" not in r for r in rows):
            sys.exit(f"{n} copies: {len(rows)} rows, want {n} "
                     "simulated rows")
        print(f"{n} copies: peak RSS {peaks[n]:.1f} MB")
    growth = peaks[20000] - peaks[2000]
    if growth > args.slack_mb:
        sys.exit(f"peak RSS grew {growth:.1f} MB from 2000 to 20000 "
                 f"copies (allowed {args.slack_mb} MB)")
    print(f"growth {growth:.1f} MB <= {args.slack_mb} MB")


if __name__ == "__main__":
    main()
