#!/usr/bin/env python3
"""Seeded-fault check: does snapshotcover catch a real dropped field?

Takes REAL components, copies each into a scratch tree, and seeds one
fault per component -- exactly the bug class the rule exists for: a
member neither captured nor checked, so a forked world silently keeps
the fresh world's value.

  - src/dram/controller.{hh,cc}: drop ``dataBusFree`` from
    ``ar(lastWrDataEnd, dataBusFree, cmdBusFree);`` in serialize;
  - src/nvram/imc.{hh,cc}: drop ``ch.pendingArrivals != 0 ||`` from
    Imc::quiescent(), the predicate Imc::serialize REQUIREs -- the
    in-flight arrival count nothing else proves zero at capture.

Asserts, per fault, in order:

  1. the unmodified copy is clean under snapshotcover (the scratch
     tree reproduces the real component faithfully);
  2. after the edit, snapshotcover reports exactly one finding, naming
     the dropped member, on its declaration in the header;
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

# (header, source holding the fault, fault text, seeded text, member)
FAULTS = (
    ("src/dram/controller.hh", "src/dram/controller.cc",
     "ar(lastWrDataEnd, dataBusFree, cmdBusFree);",
     "ar(lastWrDataEnd, cmdBusFree);", "dataBusFree"),
    ("src/nvram/imc.hh", "src/nvram/imc.cc",
     "if (ch.pendingArrivals != 0 || ", "if (", "pendingArrivals"),
)


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


def check(header, source, fault, seeded, member, errors):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel in (header, source):
            dst = root / rel
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(str(REPO / rel), str(dst))

        clean = scan(root, {"snapshotcover"})
        if clean:
            errors.append("%s: pristine copy not clean: %s"
                          % (member, fmt(clean)))

        cc = root / source
        text = cc.read_text(encoding="utf-8")
        if text.count(fault) != 1:
            errors.append("fault text %r not found once in %s -- "
                          "update FAULTS to match the component"
                          % (fault, source))
        cc.write_text(text.replace(fault, seeded), encoding="utf-8")

        got = scan(root, {"snapshotcover"})
        hits = [f for f in got if f.rule == "snapshotcover"
                and "'%s'" % member in f.message]
        if len(got) != 1 or len(hits) != 1:
            errors.append(
                "seeded fault: expected exactly 1 snapshotcover "
                "finding naming %r, got: %s" % (member, fmt(got)))
        elif hits[0].file != header:
            errors.append("seeded fault: finding should anchor on "
                          "the member declaration in %s, got %s:%d"
                          % (header, hits[0].file, hits[0].line))

        others = set(rules.ALL_RULES) - {"snapshotcover"}
        leaked = [f for f in scan(root, others)
                  if member in f.message]
        if leaked:
            errors.append("rule disabled but the fault still "
                          "reported (attribution broken): %s"
                          % fmt(leaked))


def main():
    errors = []
    for fault in FAULTS:
        check(*fault, errors)
    if errors:
        for e in errors:
            print("FAIL: %s" % e)
        print("simlint_faultcheck: %d failure(s)" % len(errors))
        return 1
    print("simlint_faultcheck: seeded %s caught by snapshotcover "
          "only: OK" % ", ".join("'%s' drop in %s" % (f[4], f[1])
                                 for f in FAULTS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
