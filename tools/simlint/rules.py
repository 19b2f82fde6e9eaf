"""Rule implementations over the declaration model.

Per-line determinism rules (v1 heritage):

  wallclock      no wall-clock time / ambient randomness in model code
  mutablestatic  no unguarded mutable statics
  tracebyvalue   TraceRecorder held only via raw pointer outside owner
  threadshared   threading primitives only in the concurrency layer

Declaration-aware rules (v2):

  snapshotcover  every data member of a class defining serialize must
                 be referenced in its serialize body, or in the
                 quiescent() predicate that body REQUIREs (with the
                 same-record predicates quiescent() calls), or carry
                 simlint-transient(reason). const members and the
                 TraceWiring struct (the ids attachTracer refills) are
                 exempt. Members of nested structs without their own
                 serialize are included -- exactly the
                 Imc::Channel::pendingArrivals bug class -- unless
                 every member holding the struct is transient or
                 tested by that quiescent() and not serialized.
  statscover     every Stat* member must be reachable from the
                 MetricsRegistry walk: referenced in a
                 metricsInto/statsInto body or exposed through a
                 StatGroup& accessor of its (enclosing) class.
  layering       include-graph DAG: common <- {dram, nvram, cpu,
                 cache, trace, workloads} <- {lens, opt, baselines};
                 upward or unsanctioned lateral includes and cycles
                 are fatal.
  hotpath        no heap-allocating std types, new, or make_unique/
                 make_shared in code marked simlint-hot (constructors
                 and snapshot/stats/trace plumbing are automatically
                 cold).
  reqptr         no shared_ptr<Request> ownership outside the pool
                 implementation: requests live in the slab-backed
                 RequestPool and are addressed by generation-checked
                 RequestHandle values.
  annotation     malformed simlint annotations (a suppression without
                 a written reason is itself a finding).
"""

from __future__ import annotations

import functools
import re


class Finding:
    __slots__ = ("rule", "file", "line", "message")

    def __init__(self, rule, file, line, message):
        self.rule = rule
        self.file = file
        self.line = line
        self.message = message


# --------------------------------------------------------------- #
# Annotation index                                                 #
# --------------------------------------------------------------- #

class AnnotationIndex:
    """Per-file lookup of parsed simlint annotations."""

    def __init__(self, sf):
        self.allows = {}      # target_line -> [Annotation]
        self.transient = {}   # target_line -> Annotation
        self.hot = set()      # target_lines
        self.malformed = []
        for a in sf.annotations:
            if a.error:
                self.malformed.append(a)
            elif a.kind == "allow":
                self.allows.setdefault(a.target_line, []).append(a)
            elif a.kind == "transient":
                self.transient[a.target_line] = a
            elif a.kind == "hot":
                self.hot.add(a.target_line)

    def allowed(self, rule, line, end_line=None):
        for ln in range(line, (end_line or line) + 1):
            for a in self.allows.get(ln, ()):
                if a.covers(rule):
                    return True
        return False

    def is_transient(self, line, end_line=None):
        return any(ln in self.transient
                   for ln in range(line, (end_line or line) + 1))

    def is_hot(self, line):
        return line in self.hot


class Project:
    """All parsed files plus derived cross-file lookup tables."""

    def __init__(self, files):
        self.files = files
        self.annots = {sf.rel: AnnotationIndex(sf) for sf in files}
        # Class name (last path component) -> [(sf, Method)] bodies
        # of out-of-line definitions.
        self.bodies_by_class = {}
        for sf in files:
            for meth in sf.free_methods:
                if meth.body_lines is None or not meth.owner:
                    continue
                cls = meth.owner.split("::")[-1]
                self.bodies_by_class.setdefault(cls, []).append(
                    (sf, meth))

    def methods_of(self, sf, rec):
        """Every method body/decl of ``rec``: inline plus matching
        out-of-line definitions anywhere in the project."""
        out = [(sf, m) for m in rec.methods]
        out.extend(self.bodies_by_class.get(rec.name, ()))
        return out


# --------------------------------------------------------------- #
# Per-line rules                                                   #
# --------------------------------------------------------------- #

WALLCLOCK_PATTERNS = (
    (re.compile(r"std::chrono"), "std::chrono wall-clock time"),
    (re.compile(r"\b\w+_clock::now\s*\("), "wall-clock now()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(NULL|nullptr|0)?\s*\)"),
     "time()"),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
)


def rule_wallclock(project):
    out = []
    for sf in project.files:
        ai = project.annots[sf.rel]
        for lineno, code in enumerate(sf.code_lines, 1):
            if not code.strip():
                continue
            for pat, what in WALLCLOCK_PATTERNS:
                if pat.search(code) and \
                        not ai.allowed("wallclock", lineno):
                    out.append(Finding(
                        "wallclock", sf.rel, lineno,
                        f"{what}: simulated time must come from the "
                        "EventQueue, randomness from a seeded Rng"))
    return out


STATIC_RE = re.compile(r"^\s*static\s+(?P<rest>.*)$")
STATIC_SAFE_RE = re.compile(
    r"^(const\b|constexpr\b|thread_local\b|std::atomic\b|"
    r"std::mutex\b|std::once_flag\b)")
FUNC_DECL_RE = re.compile(
    r"[A-Za-z_]\w*\s*\([^;]*\)\s*(const\s*)?;?\s*$")
FUNC_DECL_CONT_RE = re.compile(r"[A-Za-z_]\w*\s*\([^)]*=\s*$")


def rule_mutablestatic(project):
    out = []
    for sf in project.files:
        ai = project.annots[sf.rel]
        for lineno, code in enumerate(sf.code_lines, 1):
            m = STATIC_RE.match(code)
            if not m or ai.allowed("mutablestatic", lineno):
                continue
            rest = m.group("rest").strip()
            if (STATIC_SAFE_RE.match(rest)
                    or FUNC_DECL_RE.search(rest)
                    or FUNC_DECL_CONT_RE.search(rest)
                    or not re.search(r"[;={]\s*$", rest)):
                continue
            out.append(Finding(
                "mutablestatic", sf.rel, lineno,
                "mutable static shared across parallelFor "
                "simulations; guard it (atomic/mutex/const) or "
                "annotate with simlint-allow(mutablestatic: reason)"))
    return out


TRACE_OWNER_FILES = (
    "src/common/trace_event.hh",
    "src/common/trace_event.cc",
    "src/nvram/vans_system.hh",
    "src/nvram/vans_system.cc",
)
TRACE_BYVALUE_RE = re.compile(
    r"\bTraceRecorder\s+[A-Za-z_]\w*\s*[;={(]")
TRACE_SMARTPTR_RE = re.compile(
    r"\b(?:std::)?(?:unique_ptr|shared_ptr)\s*<\s*"
    r"(?:vans::)?(?:obs::)?TraceRecorder\s*>")


def rule_tracebyvalue(project):
    out = []
    for sf in project.files:
        if sf.rel in TRACE_OWNER_FILES:
            continue
        ai = project.annots[sf.rel]
        for lineno, code in enumerate(sf.code_lines, 1):
            if (TRACE_BYVALUE_RE.search(code)
                    or TRACE_SMARTPTR_RE.search(code)) and \
                    not ai.allowed("tracebyvalue", lineno):
                out.append(Finding(
                    "tracebyvalue", sf.rel, lineno,
                    "TraceRecorder held by value or by smart pointer "
                    "outside its owner (nvram/vans_system.*): "
                    "components must hold only a raw `TraceRecorder "
                    "*` cached at attach time so the disabled path "
                    "stays one branch"))
    return out


THREADING_OWNER_FILES = (
    "src/common/parallel.hh",
    "src/common/parallel.cc",
    "src/common/logging.cc",
)
THREADING_RE = re.compile(
    r"\bstd::(?:thread|jthread|mutex|recursive_mutex|shared_mutex|"
    r"timed_mutex|condition_variable(?:_any)?|atomic\w*|future|"
    r"promise|async|barrier|latch|semaphore)\b")


def rule_threadshared(project):
    out = []
    for sf in project.files:
        if sf.rel in THREADING_OWNER_FILES:
            continue
        ai = project.annots[sf.rel]
        for lineno, code in enumerate(sf.code_lines, 1):
            tm = THREADING_RE.search(code)
            if tm and not ai.allowed("threadshared", lineno):
                out.append(Finding(
                    "threadshared", sf.rel, lineno,
                    f"{tm.group(0)} outside the concurrency layer: a "
                    "world runs on one thread and parallel sweep "
                    "points share no simulated state (or annotate "
                    "with simlint-allow(threadshared: why this "
                    "sharing is deterministic))"))
    return out


# --------------------------------------------------------------- #
# snapshotcover                                                    #
# --------------------------------------------------------------- #

def _collect_bodies(project, sf, rec, names):
    """Concatenated body text of ``rec``'s methods named in
    ``names``, wherever they are defined. None if no body found."""
    text = []
    for _, meth in project.methods_of(sf, rec):
        if meth.name in names and meth.body_lines is not None:
            text.append(meth.body_text())
    return "\n".join(text) if text else None


def _declares(rec, name):
    return any(m.name == name for m in rec.methods)


# serialize checks the in-flight state through the record's own
# quiescent(): an unqualified call inside a VANS_REQUIRE.
REQUIRES_QUIESCENT_RE = re.compile(
    r"\bVANS_REQUIRE\s*\([^;]*(?<![\w.>:])quiescent\s*\(\s*\)")
# An unqualified call: a same-record method (ch.dimm->quiescent() is
# another record's predicate).
OWN_CALL_RE = re.compile(r"(?<![\w.>:])([A-Za-z_]\w*)\s*\(")
# Members no capture needs: construction-time configuration, and the
# per-component trace ids that attachTracer refills.
EXEMPT_MEMBER_RE = re.compile(r"^\s*(const|TraceWiring)\b")
TRACE_WIRING = "TraceWiring"


def _gate_text(project, sf, rec, body):
    """Bodies of quiescent() and of every same-record predicate it
    calls, when the serialize ``body`` REQUIREs quiescent()."""
    if not REQUIRES_QUIESCENT_RE.search(body):
        return ""
    bodies = {}
    for _, meth in project.methods_of(sf, rec):
        if meth.body_lines is not None:
            bodies.setdefault(meth.name, []).append(meth.body_text())
    seen, todo, text = set(), ["quiescent"], []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for b in bodies.get(name, ()):
            text.append(b)
            todo.extend(OWN_CALL_RE.findall(b))
    return "\n".join(text)


def _names(name, text):
    return re.search(r"\b" + re.escape(name) + r"\b", text) is not None


def _only_in_empty(sf, rec, ai, serialized, gate, child):
    """True when every member of ``rec``'s record tree whose type
    names the nested record ``child`` is transient, or is tested by
    the quiescence ``gate`` and not serialized: an empty container
    holds no element whose fields could need capturing."""
    users = [m for path, r in sf.records.items()
             if (path == rec.path or path.startswith(rec.path + "::"))
             and path != child.path
             and not path.startswith(child.path + "::")
             for m in r.members if _names(child.name, m.decl)]
    return bool(users) and all(
        ai.is_transient(m.line, m.end_line)
        or (_names(m.name, gate) and not _names(m.name, serialized))
        for m in users)


def _snapshot_members(project, sf, rec, ai, skip):
    """(member, via_record) pairs snapshotcover must see covered.
    Typed stat members are skipped: each is registered in its
    StatGroup member, which serializes them and is checked itself.
    Nested records for which ``skip`` holds are not descended into."""
    out = []
    for m in rec.members:
        if m.is_static or m.is_ref or m.is_ptr:
            continue
        if COUNTER_MEMBER_RE.search(m.decl) or \
                EXEMPT_MEMBER_RE.match(m.decl):
            continue
        if ai.is_transient(m.line, m.end_line):
            continue
        if ai.allowed("snapshotcover", m.line, m.end_line):
            continue
        out.append((m, rec))
    for child_path in rec.nested:
        child = sf.records.get(child_path)
        if child is None:
            continue
        if _declares(child, "serialize") or child.name == TRACE_WIRING:
            continue  # checked on its own, or exempt
        if ai.allowed("snapshotcover", child.line):
            continue
        if ai.is_transient(child.line):
            continue  # whole nested record is transient by design
        if skip(child):
            continue
        out.extend(_snapshot_members(project, sf, child, ai, skip))
    return out


def rule_snapshotcover(project):
    out = []
    for sf in project.files:
        ai = project.annots[sf.rel]
        for rec in sf.records.values():
            if not _declares(rec, "serialize"):
                continue
            if ai.allowed("snapshotcover", rec.line):
                continue
            serialized = _collect_bodies(project, sf, rec,
                                         ("serialize",))
            if serialized is None:
                continue  # interface-only; nothing to analyze
            gate = _gate_text(project, sf, rec, serialized)
            body = serialized + "\n" + gate
            in_empty = functools.partial(_only_in_empty, sf, rec, ai,
                                         serialized, gate)
            for member, via in _snapshot_members(project, sf, rec, ai,
                                                 in_empty):
                if _names(member.name, body):
                    continue
                where = rec.path if via is rec else via.path
                out.append(Finding(
                    "snapshotcover", sf.rel, member.line,
                    f"member '{member.name}' of {where} is not "
                    "referenced in serialize or in the quiescent() it "
                    "REQUIREs; a forked world silently diverges from "
                    "the warm prototype. Serialize it, test it in "
                    "quiescent(), or mark it simlint-transient(reason)"))
    return out


# --------------------------------------------------------------- #
# statscover                                                       #
# --------------------------------------------------------------- #

# A typed counter cannot exist unregistered (its only constructor
# links it into a StatGroup), so both stats rules check the group.
COUNTER_MEMBER_RE = re.compile(r"\bStat(Scalar|Average|Distribution)\b")
STAT_MEMBER_RE = re.compile(r"\bStatGroup\b")
WALK_METHODS = ("metricsInto", "statsInto")
ACCESSOR_SIG_RE = re.compile(
    r"^\s*(?:virtual\s+)?(?:const\s+)?(?:vans::)?StatGroup\s*&")


def _stats_reachable_text(project, sf, rec):
    """Body text that counts as 'reaches the MetricsRegistry walk'
    for members of ``rec``: walk methods and StatGroup& accessors of
    the record itself (inline or out-of-line)."""
    text = []
    for _, meth in project.methods_of(sf, rec):
        if meth.body_lines is None:
            continue
        if meth.name in WALK_METHODS or \
                ACCESSOR_SIG_RE.match(meth.sig):
            text.append(meth.body_text())
    return "\n".join(text)


def rule_statscover(project):
    out = []
    for sf in project.files:
        ai = project.annots[sf.rel]
        for rec in sf.records.values():
            stat_members = [
                m for m in rec.members
                if STAT_MEMBER_RE.search(m.decl)
                and not (m.is_static or m.is_ref or m.is_ptr)]
            if not stat_members:
                continue
            if ai.allowed("statscover", rec.line):
                continue
            # A nested struct's stats may be exported through the
            # enclosing class (Imc::Channel::stats via channelStats).
            chain = [rec]
            parts = rec.path.split("::")
            for i in range(1, len(parts)):
                parent = sf.records.get("::".join(parts[:i]))
                if parent is not None:
                    chain.append(parent)
            text = "\n".join(
                _stats_reachable_text(project, sf, r) for r in chain)
            for m in stat_members:
                if ai.allowed("statscover", m.line, m.end_line):
                    continue
                if re.search(r"\b" + re.escape(m.name) + r"\b",
                             text):
                    continue
                out.append(Finding(
                    "statscover", sf.rel, m.line,
                    f"StatGroup member '{m.name}' of {rec.path} is not "
                    "reachable from the MetricsRegistry walk: no "
                    "metricsInto/statsInto references it and no "
                    "StatGroup& accessor exposes it, so the counters "
                    "registered in it never appear in exported "
                    "metrics"))
    return out


# --------------------------------------------------------------- #
# layering                                                         #
# --------------------------------------------------------------- #

LAYERS = {
    "common": 0,
    "dram": 1, "nvram": 1, "cpu": 1, "cache": 1, "trace": 1,
    "workloads": 1,
    "lens": 2, "opt": 2, "baselines": 2,
}

# Sanctioned lateral (same-tier) edges; everything else same-tier is
# a violation. The set must stay acyclic -- the cycle check below
# guards the day someone adds the reverse edge.
ALLOWED_LATERAL = {
    ("nvram", "dram"),      # AIT buffer is on-DIMM DRAM
    ("cpu", "cache"),       # core owns its L1/LLC hierarchy
    ("cpu", "trace"),       # core replays trace files
    ("workloads", "trace"), # workloads synthesize trace streams
}


def rule_layering(project):
    out = []
    edges = {}  # (src_dir, dst_dir) -> (rel, line) first witness
    for sf in project.files:
        parts = sf.rel.replace("\\", "/").split("/")
        if len(parts) < 3 or parts[0] != "src":
            continue
        src_dir = parts[1]
        ai = project.annots[sf.rel]
        for lineno, inc in sf.includes:
            dst_dir = inc.split("/")[0] if "/" in inc else src_dir
            if ai.allowed("layering", lineno):
                continue
            if src_dir not in LAYERS:
                out.append(Finding(
                    "layering", sf.rel, lineno,
                    f"directory src/{src_dir} is not in the layer "
                    "map; add it to LAYERS in tools/simlint/rules.py "
                    "with a deliberate tier"))
                continue
            if dst_dir not in LAYERS:
                out.append(Finding(
                    "layering", sf.rel, lineno,
                    f"include target '{inc}' is outside the layered "
                    "src tree"))
                continue
            if src_dir != dst_dir:
                edges.setdefault((src_dir, dst_dir), (sf.rel, lineno))
            if src_dir == dst_dir or dst_dir == "common":
                continue
            if LAYERS[src_dir] > LAYERS[dst_dir]:
                continue
            if LAYERS[src_dir] == LAYERS[dst_dir] and \
                    (src_dir, dst_dir) in ALLOWED_LATERAL:
                continue
            kind = "upward" if LAYERS[dst_dir] > LAYERS[src_dir] \
                else "unsanctioned lateral"
            out.append(Finding(
                "layering", sf.rel, lineno,
                f"{kind} include src/{src_dir} -> src/{dst_dir}: the "
                "layer DAG is common <- {dram, nvram, cpu, cache, "
                "trace, workloads} <- {lens, opt, baselines} (plus "
                "sanctioned lateral edges "
                + ", ".join(sorted(f"{a}->{b}"
                                   for a, b in ALLOWED_LATERAL))
                + ")"))

    # Cycle detection over the observed directory graph.
    graph = {}
    for (a, b) in edges:
        graph.setdefault(a, set()).add(b)
    visiting, done = set(), set()

    def dfs(node, path):
        visiting.add(node)
        for nxt in sorted(graph.get(node, ())):
            if nxt in visiting:
                cyc = path[path.index(nxt):] + [nxt] \
                    if nxt in path else [node, nxt]
                rel, line = edges[(node, nxt)]
                out.append(Finding(
                    "layering", rel, line,
                    "include cycle between src directories: "
                    + " -> ".join(cyc)))
            elif nxt not in done:
                dfs(nxt, path + [nxt])
        visiting.discard(node)
        done.add(node)

    for node in sorted(graph):
        if node not in done:
            dfs(node, [node])
    return out


# --------------------------------------------------------------- #
# hotpath                                                          #
# --------------------------------------------------------------- #

# Methods that run off the event path by construction: building,
# serializing, exporting, attaching observers.
COLD_METHOD_RE = re.compile(
    r"^(serialize|statsInto|metricsInto|attachTracer|"
    r"dump|build\w*|toChromeJson|writeChromeJson)$")

ALLOC_TYPE_RE = re.compile(
    r"\bstd::(vector|deque|list|forward_list|map|multimap|set|"
    r"multiset|unordered_map|unordered_set|unordered_multimap|"
    r"unordered_multiset|string|basic_string|stringstream|"
    r"ostringstream|istringstream|function)\b")
NEW_RE = re.compile(r"(?<![\w.])new\b(?!\s*\()")
MAKE_RE = re.compile(r"\bstd::make_(unique|shared)\b")


def _hot_records(project):
    """{class name: (sf, rec)} for records marked simlint-hot."""
    hot = {}
    for sf in project.files:
        ai = project.annots[sf.rel]
        for rec in sf.records.values():
            if ai.is_hot(rec.line):
                hot[rec.name] = (sf, rec)
    return hot


def _is_alloc_mention(code, m):
    """False when an allocating type is mentioned as a pointer,
    reference, or iterator (binding, not constructing)."""
    i = m.end()
    if i < len(code) and code[i] == "<":
        depth = 0
        while i < len(code):
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
                if depth == 0:
                    i += 1
                    break
            i += 1
    rest = code[i:].lstrip()
    return not (rest.startswith("*") or rest.startswith("&")
                or rest.startswith("::"))


def _scan_hot_body(project, sf, meth, out):
    ai = project.annots[sf.rel]
    for lineno, code in meth.body_lines or ():
        if not code.strip() or ai.allowed("hotpath", lineno):
            continue
        for pat, what in ((ALLOC_TYPE_RE, "allocating std type"),
                          (NEW_RE, "operator new"),
                          (MAKE_RE, "heap-allocating make_*")):
            m = pat.search(code)
            if m and pat is ALLOC_TYPE_RE and \
                    not _is_alloc_mention(code, m):
                continue
            if m:
                out.append(Finding(
                    "hotpath", sf.rel, lineno,
                    f"{what} '{m.group(0)}' in simlint-hot code "
                    f"({meth.owner or '<free>'}::{meth.name}): the "
                    "event path must not allocate per event; hoist "
                    "the storage or annotate with "
                    "simlint-allow(hotpath: reason)"))
    return out


def rule_hotpath(project):
    out = []
    hot = _hot_records(project)
    seen = set()  # (rel, line) de-dup for inline + out-of-line scans

    def scan(sf, meth):
        if meth.body_lines is None:
            return
        key = (sf.rel, meth.line)
        if key in seen:
            return
        seen.add(key)
        cls = meth.owner.split("::")[-1] if meth.owner else ""
        if meth.name == cls or meth.name == "~" + cls or \
                COLD_METHOD_RE.match(meth.name):
            return
        if project.annots[sf.rel].allowed("hotpath", meth.line):
            return
        _scan_hot_body(project, sf, meth, out)

    for name, (sf, rec) in hot.items():
        # std::function anywhere in a hot record's members is the
        # old stdfunction rule, now keyed on the marker.
        ai = project.annots[sf.rel]
        for m in rec.members:
            if "std::function" in m.decl and \
                    not ai.allowed("hotpath", m.line, m.end_line):
                out.append(Finding(
                    "hotpath", sf.rel, m.line,
                    f"std::function member '{m.name}' in simlint-hot "
                    f"record {rec.path}: use InplaceCallback to keep "
                    "event scheduling allocation-free"))
        for owner_sf, meth in project.methods_of(sf, rec):
            scan(owner_sf, meth)

    # Free or per-method simlint-hot markers.
    for sf in project.files:
        ai = project.annots[sf.rel]
        if not ai.hot:
            continue
        for meth in sf.free_methods:
            if ai.is_hot(meth.line) and meth.body_lines is not None:
                key = (sf.rel, meth.line)
                if key not in seen:
                    seen.add(key)
                    _scan_hot_body(project, sf, meth, out)
        for rec in sf.records.values():
            for meth in rec.methods:
                if ai.is_hot(meth.line) and \
                        meth.body_lines is not None:
                    key = (sf.rel, meth.line)
                    if key not in seen:
                        seen.add(key)
                        _scan_hot_body(project, sf, meth, out)
    return out


# --------------------------------------------------------------- #
# reqptr                                                           #
# --------------------------------------------------------------- #

# The pool implementation is the single place allowed to talk about
# request storage; everything else holds RequestHandle values.
REQPTR_OWNER_FILES = (
    "src/common/request_pool.hh",
    "src/common/request_pool.cc",
)
REQPTR_RE = re.compile(
    r"\b(?:std::\s*)?(?:shared_ptr|weak_ptr)\s*<\s*(?:vans::)?"
    r"Request\s*>"
    r"|\bmake_shared\s*<\s*(?:vans::)?Request\s*[>,)]")


def rule_reqptr(project):
    out = []
    for sf in project.files:
        if sf.rel in REQPTR_OWNER_FILES:
            continue
        ai = project.annots[sf.rel]
        for lineno, code in enumerate(sf.code_lines, 1):
            m = REQPTR_RE.search(code)
            if m and not ai.allowed("reqptr", lineno):
                out.append(Finding(
                    "reqptr", sf.rel, lineno,
                    f"'{m.group(0)}' outside the pool "
                    "implementation: requests are pool slots owned "
                    "by RequestPool and addressed by generation-"
                    "checked RequestHandle values -- shared_ptr "
                    "ownership reintroduces a control-block "
                    "allocation and refcount per request on the "
                    "issue path. Hold a RequestHandle (or annotate "
                    "with simlint-allow(reqptr: reason))"))
    return out


# --------------------------------------------------------------- #
# annotation hygiene                                               #
# --------------------------------------------------------------- #

def rule_annotation(project):
    out = []
    for sf in project.files:
        for a in project.annots[sf.rel].malformed:
            out.append(Finding("annotation", sf.rel, a.line, a.error))
    return out


# --------------------------------------------------------------- #
# registry                                                         #
# --------------------------------------------------------------- #

ALL_RULES = {
    "wallclock": (rule_wallclock,
                  "No wall-clock time or ambient randomness in "
                  "simulator code"),
    "mutablestatic": (rule_mutablestatic,
                      "No unguarded mutable statics shared across "
                      "parallel simulations"),
    "tracebyvalue": (rule_tracebyvalue,
                     "TraceRecorder referenced only through a raw "
                     "pointer outside its owner"),
    "threadshared": (rule_threadshared,
                     "Threading primitives only in the concurrency "
                     "layer"),
    "snapshotcover": (rule_snapshotcover,
                      "Every member of a snapshot-capable class is "
                      "referenced in its serialize body or in the "
                      "quiescent() it REQUIREs, const, trace wiring, "
                      "or marked simlint-transient"),
    "statscover": (rule_statscover,
                   "Every Stat* member is reachable from the "
                   "MetricsRegistry walk"),
    "layering": (rule_layering,
                 "Include graph respects the layer DAG; cycles and "
                 "upward includes are fatal"),
    "hotpath": (rule_hotpath,
                "No heap allocation in code marked simlint-hot"),
    "reqptr": (rule_reqptr,
               "Requests are addressed by pooled RequestHandle, "
               "never owned via shared_ptr outside the pool"),
    "annotation": (rule_annotation,
                   "simlint suppressions carry a written reason"),
}


def run_rules(files, rule_names=None):
    project = Project(files)
    findings = []
    for name, (fn, _) in ALL_RULES.items():
        if rule_names is None or name in rule_names:
            findings.extend(fn(project))
    findings.sort(key=lambda f: (f.file, f.line, f.rule, f.message))
    return findings
