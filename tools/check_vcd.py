#!/usr/bin/env python3
"""Structural checker for VCD files (the subset waveform/vcd.cpp emits).

Usage: check_vcd.py FILE [--min-signals N] [--min-changes N]

Validates, without any third-party dependency, that a VCD file is loadable
by a standards-following viewer:

  * $timescale is present and one of the legal {1,10,100}{s..fs} decades
  * $enddefinitions closes the header
  * every $var is a 1-bit wire or a real, with a unique id code
  * every value change references a declared id
  * '#' time marks are non-decreasing integers

Exits 0 and prints a one-line summary on success; exits 1 with a message
on the first structural violation. CI (the obs-smoke and stat-smoke jobs)
runs this over every driver's VCD to lock the writer against regressions.
"""

import argparse
import sys

LEGAL_MAGNITUDES = {"1", "10", "100"}
LEGAL_UNITS = {"s", "ms", "us", "ns", "ps", "fs"}


def fail(message):
    print(f"check_vcd: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("file")
    parser.add_argument("--min-signals", type=int, default=1,
                        help="fail unless at least N signals are declared")
    parser.add_argument("--min-changes", type=int, default=0,
                        help="fail unless at least N value changes appear")
    args = parser.parse_args()

    with open(args.file, encoding="ascii") as handle:
        tokens = handle.read().split()

    ids = {}  # id code -> (name, is_real)
    saw_timescale = False
    saw_enddefinitions = False
    last_tick = -1
    n_changes = 0

    i = 0
    while i < len(tokens):
        token = tokens[i]
        if token.startswith("$") and token != "$end":
            directive = token
            words = []
            i += 1
            if directive in ("$dumpvars", "$dumpall", "$dumpon", "$dumpoff"):
                continue  # contents parse as ordinary value changes
            while i < len(tokens) and tokens[i] != "$end":
                words.append(tokens[i])
                i += 1
            if i == len(tokens):
                fail(f"unterminated {directive}")
            i += 1  # consume $end
            if directive == "$timescale":
                text = "".join(words)
                magnitude = "".join(c for c in text if c.isdigit())
                unit = text[len(magnitude):]
                if magnitude not in LEGAL_MAGNITUDES or unit not in LEGAL_UNITS:
                    fail(f"illegal $timescale '{' '.join(words)}'")
                saw_timescale = True
            elif directive == "$var":
                if len(words) < 4:
                    fail(f"malformed $var '{' '.join(words)}'")
                var_type, width, id_code = words[0], words[1], words[2]
                name = "".join(words[3:])
                if id_code in ids:
                    fail(f"duplicate id code '{id_code}'")
                if var_type == "real":
                    ids[id_code] = (name, True)
                elif var_type == "wire":
                    if width != "1":
                        fail(f"wire '{name}' has width {width}, expected 1")
                    ids[id_code] = (name, False)
                else:
                    fail(f"unsupported $var type '{var_type}'")
            elif directive == "$enddefinitions":
                saw_enddefinitions = True
            continue
        i += 1
        if token == "$end":
            continue  # closes a $dumpvars block
        if token.startswith("#"):
            try:
                tick = int(token[1:])
            except ValueError:
                fail(f"malformed time mark '{token}'")
            if tick < last_tick:
                fail(f"time mark #{tick} goes backwards (after #{last_tick})")
            last_tick = tick
            continue
        if token[0] in "01xXzZ":
            id_code = token[1:]
            if id_code not in ids:
                fail(f"value change for undeclared id '{id_code}'")
            if ids[id_code][1]:
                fail(f"scalar change on real signal id '{id_code}'")
            n_changes += 1
            continue
        if token[0] in "rR":
            if i >= len(tokens):
                fail("truncated real value change")
            id_code = tokens[i]
            i += 1
            if id_code not in ids:
                fail(f"real change for undeclared id '{id_code}'")
            if not ids[id_code][1]:
                fail(f"real change on wire id '{id_code}'")
            n_changes += 1
            continue
        fail(f"unrecognized token '{token}'")

    if not saw_timescale:
        fail("missing $timescale")
    if not saw_enddefinitions:
        fail("missing $enddefinitions")
    if len(ids) < args.min_signals:
        fail(f"only {len(ids)} signal(s) declared, need {args.min_signals}")
    if n_changes < args.min_changes:
        fail(f"only {n_changes} value change(s), need {args.min_changes}")
    print(f"check_vcd: OK ({len(ids)} signals, {n_changes} changes, "
          f"last tick #{max(last_tick, 0)})")


if __name__ == "__main__":
    main()
