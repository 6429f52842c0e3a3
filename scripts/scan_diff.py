"""Structured diff of two `scripts/scan.py` outputs: print only what moved.

    python scripts/scan.py > old.txt        # in one checkout
    python scripts/scan.py > new.txt        # in the other
    python scripts/scan_diff.py old.txt new.txt

It pairs the commands of both files in order and prints

* each command whose exit code changed, and each command found in one file
  only;
* each PASS/FAIL token that changed: the verdict at the end of a `verify`
  level line, and the `verification PASSED/FAILED` line;
* per family and field, the largest change |new − old| / max(1, |old|, |new|)
  of the numeric fields (relative, and absolute below 1, so a level at E = 0
  reads its absolute change), with how many of them moved: the `key=value`
  fields of the `verify` level lines (E, oracle, |dE|, …), the numbers of a
  `solve --format json` reply by their JSON path, and the columns of a
  `wavefunction` table;
* per family and field, how many of the other fields of a `solve --format
  json` reply changed (strings, nulls and booleans, such as `energy_exact`,
  `bc_class`, `wavefunction_form` or a `params` string), by their JSON path;
* the count of other output lines that changed, per family.

It exits 1 when an exit code, a PASS/FAIL token or the command list moved,
else 0: changed digits alone are a finding to report, not an error.
"""

import argparse
import json
import sys
from collections import defaultdict


def blocks(path):
    """[(command, exit code, output lines)] of one scan output, in order."""
    out = []
    with open(path, encoding="utf-8") as handle:
        for line in handle.read().splitlines():
            if line.startswith("$ qhj "):
                out.append([line[len("$ qhj "):], None, []])
            elif out and out[-1][1] is None and line.startswith("exit "):
                out[-1][1] = line[len("exit "):]
            elif out:
                out[-1][2].append(line)
    return [tuple(block) for block in out]


def verdicts(lines):
    """The PASS/FAIL tokens of a command's output, in order."""
    return [line.rsplit(" ", 1)[-1] if line.startswith("set=") else line
            for line in lines if line.startswith(("set=", "verification "))]


def _number(text):
    try:
        return complex(text)
    except ValueError:
        return None


def _json_leaves(value, path=""):
    """(JSON path, value) of each leaf, a list's items sharing their list's path."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_leaves(item, "%s.%s" % (path, key) if path else key)
    elif isinstance(value, list):
        for item in value:
            yield from _json_leaves(item, path)
    else:
        yield path, value


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_reply(command, line):
    """The leaves of a `solve --format json` reply line, or None for another line."""
    if command.startswith("solve ") and line.startswith("{"):
        return list(_json_leaves(json.loads(line)))
    return None


def fields(command, line):
    """[(field, number)] of one output line, or None for a line without numeric fields."""
    if line.startswith("set="):
        pairs = [token.split("=", 1) for token in line.split() if "=" in token]
        return [(key, _number(value)) for key, value in pairs if _number(value) is not None]
    leaves = _json_reply(command, line)
    if leaves is not None:
        return [(key, value) for key, value in leaves if _is_number(value)]
    if command.startswith("wavefunction ") and "," in line:
        numbers = [_number(cell) for cell in line.split(",")]
        if None not in numbers:
            return [("column %d" % i, n) for i, n in enumerate(numbers)]
    return None


def relative(old, new):
    return abs(new - old) / max(1.0, abs(old), abs(new))


def texts(command, line):
    """[(JSON path, value)] of the fields of a JSON reply that are no numbers, or None."""
    leaves = _json_reply(command, line)
    return None if leaves is None else [(k, v) for k, v in leaves if not _is_number(v)]


def compare(old, new):
    """(report lines, whether an exit code, a token or the command list moved)."""
    report, moved = [], False
    commands = [c for c, _, _ in old], [c for c, _, _ in new]
    if commands[0] != commands[1]:
        moved = True
        for name, mine, theirs in (("old", *commands), ("new", *commands[::-1])):
            report += ["only in %s: qhj %s" % (name, c) for c in mine if c not in theirs]
    largest = defaultdict(lambda: [0.0, 0, 0])       # (family, kind, field) → [max, moved, seen]
    words = defaultdict(lambda: [0, 0])              # (family, kind, JSON path) → [moved, seen]
    text = defaultdict(int)
    paired = {c: (code, lines) for c, code, lines in old}
    for command, code, lines in new:
        if command not in paired:
            continue
        old_code, old_lines = paired[command]
        family = command.split()[1]
        if old_code != code:
            moved = True
            report.append("exit %s -> %s: qhj %s" % (old_code, code, command))
        for i, (a, b) in enumerate(zip(verdicts(old_lines), verdicts(lines))):
            if a != b:
                moved = True
                report.append("token %d %s -> %s: qhj %s" % (i, a, b, command))
        if len(old_lines) != len(lines):
            text[family] += abs(len(old_lines) - len(lines))
        for a, b in zip(old_lines, lines):
            fa, fb = fields(command, a), fields(command, b)
            if fa is None or fb is None or [k for k, _ in fa] != [k for k, _ in fb]:
                text[family] += a != b
                continue
            for (key, x), (_, y) in zip(fa, fb):
                entry = largest[family, command.split()[0], key]
                entry[0] = max(entry[0], relative(x, y))
                entry[1] += x != y
                entry[2] += 1
            ta, tb = texts(command, a), texts(command, b)
            if ta is None or tb is None:
                continue
            if [k for k, _ in ta] != [k for k, _ in tb]:
                text[family] += 1
                continue
            for (key, x), (_, y) in zip(ta, tb):
                entry = words[family, command.split()[0], key]
                entry[0] += x != y
                entry[1] += 1
    rows = [(family, kind, key, *entry) for (family, kind, key), entry in largest.items()
            if entry[1]]
    if rows:
        report.append("largest change per family and field, relative to max(1, |value|) "
                      "(values moved / seen):")
        report += ["  %-16s %-13s %-28s %9.3e  (%d / %d)" % row for row in sorted(rows)]
    rows = [(family, kind, key, *entry) for (family, kind, key), entry in words.items()
            if entry[0]]
    if rows:
        report.append("other JSON fields changed per family and field (values moved / seen):")
        report += ["  %-16s %-13s %-28s  (%d / %d)" % row for row in sorted(rows)]
    report += ["other lines changed: %s %d" % item for item in sorted(text.items()) if item[1]]
    return report, moved


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    report, moved = compare(blocks(args.old), blocks(args.new))
    print("\n".join(report) if report else "no change")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
