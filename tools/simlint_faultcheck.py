#!/usr/bin/env python3
"""Seeded-fault check: does snapshotcover catch a real dropped field?

Takes a REAL component (src/dram/controller.{hh,cc}), copies it into
a scratch tree, and drops one member from its serialize body
(``dataBusFree`` from ``ar(lastWrDataEnd, dataBusFree, cmdBusFree);``)
-- exactly the bug class the rule exists for: a member neither
captured nor restored, so a forked world silently keeps the fresh
world's value.

Asserts, in order:

  1. the unmodified copy is clean under snapshotcover (the scratch
     tree reproduces the annotated real component faithfully);
  2. after the deletion, snapshotcover reports the dropped member by
     name, on the member's declaration line;
  3. with snapshotcover disabled, the mutated tree reports nothing --
     the detection is attributable to the rule under test.

Python >= 3.8, stdlib only. Exit 0 on success, 1 on failure.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))

from simlint import model, rules  # noqa: E402

REPO = TOOLS.parent
COMPONENT = ("src/dram/controller.hh", "src/dram/controller.cc")
FAULT_LINE = "ar(lastWrDataEnd, dataBusFree, cmdBusFree);"
SEEDED_LINE = "ar(lastWrDataEnd, cmdBusFree);"
FAULT_MEMBER = "dataBusFree"


def scan(root, rule_names):
    pairs = sorted(
        (str(p), str(p.relative_to(root)).replace("\\", "/"))
        for g in ("*.cc", "*.hh") for p in (root / "src").rglob(g))
    files = [model.parse_file(p, rel) for p, rel in pairs]
    return rules.run_rules(files, rule_names)


def fmt(findings):
    return "; ".join("%s:%d [%s] %s" % (f.file, f.line, f.rule,
                                        f.message[:70])
                     for f in findings) or "<none>"


def main():
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel in COMPONENT:
            dst = root / rel
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(str(REPO / rel), str(dst))

        clean = scan(root, {"snapshotcover"})
        if clean:
            errors.append("pristine copy not clean: %s" % fmt(clean))

        cc = root / COMPONENT[1]
        text = cc.read_text(encoding="utf-8")
        if text.count(FAULT_LINE) != 1:
            errors.append("fault line %r not found once in %s -- "
                          "update FAULT_LINE to match the component"
                          % (FAULT_LINE, COMPONENT[1]))
        cc.write_text(text.replace(FAULT_LINE, SEEDED_LINE),
                      encoding="utf-8")

        got = scan(root, {"snapshotcover"})
        hits = [f for f in got if f.rule == "snapshotcover"
                and FAULT_MEMBER in f.message]
        if len(got) != 1 or len(hits) != 1:
            errors.append(
                "seeded fault: expected exactly 1 snapshotcover "
                "finding naming %r, got: %s" % (FAULT_MEMBER,
                                                fmt(got)))
        elif hits[0].file != COMPONENT[0]:
            errors.append("seeded fault: finding should anchor on "
                          "the member declaration in %s, got %s:%d"
                          % (COMPONENT[0], hits[0].file,
                             hits[0].line))

        others = set(rules.ALL_RULES) - {"snapshotcover"}
        leaked = [f for f in scan(root, others)
                  if FAULT_MEMBER in f.message]
        if leaked:
            errors.append("rule disabled but the fault still "
                          "reported (attribution broken): %s"
                          % fmt(leaked))

    if errors:
        for e in errors:
            print("FAIL: %s" % e)
        print("simlint_faultcheck: %d failure(s)" % len(errors))
        return 1
    print("simlint_faultcheck: seeded '%s' drop in %s caught by "
          "snapshotcover only: OK" % (FAULT_MEMBER, COMPONENT[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
