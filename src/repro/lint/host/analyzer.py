"""AST analyses behind ``repro lint-host``.

Four definite-only passes over the registered modules
(:data:`repro.lint.host.registry.HOST_MODULES`):

* **lockset** (HL1xx) — a *path-taint* analysis seeds protocol-path
  values from the registry (``self.path`` in ``JobQueue``,
  ``self.path_for(...)`` in ``ResultCache``, ...) and propagates them
  through assignments, string concatenation, ``os.path.join`` and
  ``for`` targets; every mutation of a lock-requiring class
  (``open(.., "a"/"w")``, ``os.replace`` onto it) must then be
  lexically dominated by a recognized lock context
  (``with self._lock():`` / ``with self._write_lock():`` /
  ``with flock_exclusive(...):``).  Private (``_``-prefixed) writers
  may carry the obligation to their callers — "caller holds the lock"
  is the documented idiom for primitives like ``JobQueue._append`` —
  but a *public* entry point that writes (HL101) or transitively
  reaches a writer (HL102) without the lock is a definite violation.
* **atomic-write discipline** (HW2xx) — no truncating ``open`` on a
  protocol path; ``os.replace`` publishes of durable classes need an
  ``os.fsync`` of the written file and a directory fsync; durable
  appends need ``os.fsync``.  The :mod:`repro.fsio` helpers satisfy the
  discipline by construction: ``atomic_replace`` is a publish and
  ``append_record`` an append, each fsync'd unless called with
  ``durable=False`` — which on a durable class is HW202 + HW203 for a
  publish and HW204 for an append.
* **torn-tail decode** (HT3xx) — append-only classes must be read in
  binary mode (their readers decode per record; a text-mode read turns
  a torn multi-byte tail into ``UnicodeDecodeError`` for the file).
* **determinism** (HD4xx) — ``repro.core``/``repro.branch``/
  ``repro.memsys`` must not import ``time``/``random``, call ``id()``
  or iterate unordered sets.

Definite-only means under-tainting is safe: an expression the analysis
cannot prove to be a protocol path is simply not checked.  The prize is
a repo that lints clean without suppressions, exactly like the guest
linter's registry-wide gate.
"""

import ast

from repro.lint.host.registry import PATH_CLASSES
from repro.lint.host.rules import host_finding

#: ``open`` modes are decomposed into flags; anything with "w" truncates,
#: anything with "a" appends, anything else reads.
_MUTATING_KINDS = ("append", "trunc", "publish")

#: The :mod:`repro.fsio` writers the lint trusts, by the event they are.
_HELPER_KINDS = {"atomic_replace": "publish", "append_record": "append"}


class _FuncFacts:
    """Everything one pass over a function body records."""

    def __init__(self, owner, name, lineno):
        self.owner = owner            # enclosing class name, "" at module level
        self.name = name
        self.lineno = lineno
        # (kind, class_name, lineno, locked, durable): *durable* is the
        # fsio helper's flag, or None for a raw operation (judged by the
        # function's own fsyncs).
        self.events = []
        self.calls = []               # ((owner, callee), lineno, locked)
        self.has_fsync = False
        self.has_dir_fsync = False

    @property
    def qualname(self):
        return "%s.%s" % (self.owner, self.name) if self.owner else self.name

    @property
    def public(self):
        return not self.name.startswith("_")


def _call_name(func):
    """Dotted name of a call target: ``os.replace`` -> ("os", "replace")."""
    if isinstance(func, ast.Name):
        return ("", func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return (func.value.id, func.attr)
    return None


def _literal_str(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


class _FunctionAnalyzer(ast.NodeVisitor):
    """One function body: taint propagation + event collection."""

    def __init__(self, spec, owner, facts, module_functions):
        self.spec = spec
        self.owner = owner
        self.facts = facts
        self.module_functions = module_functions
        self.taint = {}               # local name -> frozenset of class names
        self.map_names = {}           # local name -> subscript_seeds base
        self.lock_depth = 0

    # -- taint ----------------------------------------------------------

    def classes_of(self, node):
        """Path classes *node* definitely evaluates to (frozenset)."""
        if isinstance(node, ast.Name):
            return self.taint.get(node.id, frozenset())
        if isinstance(node, ast.Attribute):
            if (isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                seeded = self.spec.attr_seeds.get((self.owner, node.attr))
                if seeded:
                    return frozenset((seeded,))
            return frozenset()
        if isinstance(node, ast.Subscript):
            key = _literal_str(node.slice)
            base = None
            if isinstance(node.value, ast.Attribute):
                base = node.value.attr
            elif isinstance(node.value, ast.Call):
                target = _call_name(node.value.func)
                base = target[1] if target else None
            elif isinstance(node.value, ast.Name):
                base = self.map_names.get(node.value.id)
            if base is not None and key is not None:
                seeded = self.spec.subscript_seeds.get(base, {}).get(key)
                if seeded:
                    return frozenset((seeded,))
            return frozenset()
        if isinstance(node, ast.Call):
            target = _call_name(node.func)
            if target is not None:
                base, attr = target
                if base == "self":
                    seeded = self.spec.call_seeds.get((self.owner, attr))
                    if seeded:
                        return frozenset((seeded,))
                if base == "":
                    seeded = self.spec.call_seeds.get(("", attr))
                    if seeded:
                        return frozenset((seeded,))
                if (base, attr) == ("os", "path"):  # pragma: no cover
                    return frozenset()
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"):
                classes = frozenset()
                for arg in node.args:
                    classes |= self.classes_of(arg)
                return classes
            # A seeded method called on a non-self receiver
            # (daemon.paths is covered by subscripts; calls stay
            # self-scoped) contributes nothing: under-taint is safe.
            return frozenset()
        if isinstance(node, ast.BinOp):
            return self.classes_of(node.left) | self.classes_of(node.right)
        if isinstance(node, ast.IfExp):
            return self.classes_of(node.body) | self.classes_of(node.orelse)
        if isinstance(node, ast.JoinedStr):
            classes = frozenset()
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    classes |= self.classes_of(value.value)
            return classes
        return frozenset()

    # -- structure -------------------------------------------------------

    def visit_Assign(self, node):
        self.visit(node.value)
        classes = self.classes_of(node.value)
        mapped = None
        if isinstance(node.value, ast.Attribute):
            if node.value.attr in self.spec.subscript_seeds:
                mapped = node.value.attr
        elif isinstance(node.value, ast.Call):
            target = _call_name(node.value.func)
            if target and target[1] in self.spec.subscript_seeds:
                mapped = target[1]
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.taint[target.id] = classes
                if mapped:
                    self.map_names[target.id] = mapped
            else:
                self.visit(target)

    def visit_For(self, node):
        self.visit(node.iter)
        if isinstance(node.target, ast.Name):
            self.taint[node.target.id] = self.classes_of(node.iter)
        for stmt in node.body:
            self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)

    def _is_lock_item(self, item):
        call = item.context_expr
        if not isinstance(call, ast.Call):
            return False
        target = _call_name(call.func)
        if target is None:
            return False
        return target[1] in self.spec.lock_ctx

    def visit_With(self, node):
        locked = any(self._is_lock_item(item) for item in node.items)
        for item in node.items:
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                if isinstance(item.optional_vars, ast.Name):
                    self.taint[item.optional_vars.id] = self.classes_of(
                        item.context_expr
                    )
        if locked:
            self.lock_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if locked:
            self.lock_depth -= 1

    def visit_FunctionDef(self, node):
        # Nested defs (closures) are analyzed in the enclosing
        # function's context but without its lock state; keep it simple
        # and conservative: skip their bodies (under-taint is safe).
        return

    visit_AsyncFunctionDef = visit_FunctionDef

    # -- events ----------------------------------------------------------

    def _record(self, kind, classes, lineno, durable=None):
        for class_name in sorted(classes):
            self.facts.events.append(
                (kind, class_name, lineno, self.lock_depth > 0, durable)
            )

    def visit_Call(self, node):
        self.generic_visit(node)
        target = _call_name(node.func)
        if target is None:
            return
        base, attr = target

        if attr == "open" or (base == "" and attr == "open"):
            if base in ("", "io"):
                self._record_open(node)
                return
        if (base, attr) == ("os", "replace") and len(node.args) >= 2:
            self._record("publish", self.classes_of(node.args[1]),
                         node.lineno)
            return
        if attr in _HELPER_KINDS and node.args:
            durable = not _passes_false(node, "durable")
            self._record(_HELPER_KINDS[attr], self.classes_of(node.args[0]),
                         node.lineno, durable=durable)
            return
        if (base, attr) == ("os", "fsync"):
            self.facts.has_fsync = True
            return
        if attr == "fsync_directory":
            self.facts.has_dir_fsync = True
            return
        if base == "self":
            self.facts.calls.append(
                ((self.owner, attr), node.lineno, self.lock_depth > 0)
            )
        elif base == "" and attr in self.module_functions:
            self.facts.calls.append(
                (("", attr), node.lineno, self.lock_depth > 0)
            )

    def _record_open(self, node):
        if not node.args:
            return
        classes = self.classes_of(node.args[0])
        if not classes:
            return
        mode = "r"
        if len(node.args) >= 2:
            literal = _literal_str(node.args[1])
            mode = literal if literal is not None else mode
        for keyword in node.keywords:
            if keyword.arg == "mode":
                literal = _literal_str(keyword.value)
                mode = literal if literal is not None else mode
        if "w" in mode or "x" in mode:
            self._record("trunc", classes, node.lineno)
        elif "a" in mode:
            self._record("append", classes, node.lineno)
        elif "b" not in mode:
            self._record("read_text", classes, node.lineno)


def _passes_false(call, keyword):
    """True when *call* passes a literal ``False`` for *keyword*."""
    return any(
        item.arg == keyword and isinstance(item.value, ast.Constant)
        and item.value.value is False
        for item in call.keywords
    )


def _collect_functions(tree, spec, relpath):
    """Per-function facts for every method / module function."""
    module_functions = {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    collected = []

    def analyze(owner, node):
        facts = _FuncFacts(owner, node.name, node.lineno)
        walker = _FunctionAnalyzer(spec, owner, facts, module_functions)
        for (func, param), class_name in spec.param_seeds.items():
            if func == node.name:
                walker.taint[param] = frozenset((class_name,))
        for stmt in node.body:
            walker.visit(stmt)
        collected.append(facts)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            analyze("", node)
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    analyze(node.name, member)
    return collected


def _lockset_findings(functions, spec, relpath):
    """HL101/HL102 plus the obligation fixpoint."""
    findings = []
    by_id = {(f.owner, f.name): f for f in functions}
    waived = {qualname for qualname in spec.waivers}

    def is_waived(facts):
        return facts.qualname in waived

    needs_lock = set()
    for facts in functions:
        if is_waived(facts):
            continue
        for kind, class_name, lineno, locked, _durable in facts.events:
            if kind not in _MUTATING_KINDS or locked:
                continue
            if not PATH_CLASSES[class_name].locked:
                continue
            if facts.public:
                findings.append(host_finding(
                    "HL101", relpath, lineno,
                    "%s mutates the %s file outside its flock critical "
                    "section" % (facts.qualname, class_name),
                ))
            else:
                needs_lock.add((facts.owner, facts.name))

    # Propagate the caller-holds-the-lock obligation up private call
    # chains; a public method reaching an obligated writer unlocked is
    # the definite violation.
    changed = True
    reported = set()
    while changed:
        changed = False
        for facts in functions:
            if is_waived(facts):
                continue
            for callee, lineno, locked in facts.calls:
                if locked or callee not in needs_lock:
                    continue
                if facts.public:
                    marker = (facts.qualname, callee, lineno)
                    if marker not in reported:
                        reported.add(marker)
                        callee_facts = by_id.get(callee)
                        callee_name = (
                            callee_facts.qualname if callee_facts
                            else callee[1]
                        )
                        findings.append(host_finding(
                            "HL102", relpath, lineno,
                            "%s calls %s (which writes under a "
                            "caller-held lock) without holding the "
                            "lock" % (facts.qualname, callee_name),
                        ))
                elif (facts.owner, facts.name) not in needs_lock:
                    needs_lock.add((facts.owner, facts.name))
                    changed = True
    return findings


def _durability_findings(functions, spec, relpath):
    """HW201/HW202/HW203/HW204 and HT301."""
    findings = []
    for facts in functions:
        if facts.qualname in spec.waivers:
            continue
        for kind, class_name, lineno, _locked, durable in facts.events:
            cls = PATH_CLASSES[class_name]
            fsynced = facts.has_fsync if durable is None else durable
            dir_fsynced = facts.has_dir_fsync if durable is None else durable
            if kind == "trunc" and (cls.atomic or cls.append_only):
                findings.append(host_finding(
                    "HW201", relpath, lineno,
                    "%s truncates the %s file in place (publish a temp "
                    "file via os.replace / fsio.atomic_replace instead)"
                    % (facts.qualname, class_name),
                ))
            elif kind == "publish" and cls.durable:
                if not fsynced:
                    findings.append(host_finding(
                        "HW202", relpath, lineno,
                        "%s publishes the %s file via os.replace but "
                        "never fsyncs the written temp file"
                        % (facts.qualname, class_name),
                    ))
                if not dir_fsynced:
                    findings.append(host_finding(
                        "HW203", relpath, lineno,
                        "%s publishes the durable %s file without a "
                        "directory fsync (fsio.fsync_directory) after "
                        "os.replace" % (facts.qualname, class_name),
                    ))
            elif kind == "append" and cls.durable and not fsynced:
                findings.append(host_finding(
                    "HW204", relpath, lineno,
                    "%s appends to the durable %s file without os.fsync "
                    "(flush alone stops at the page cache)"
                    % (facts.qualname, class_name),
                ))
            elif kind == "read_text" and cls.append_only:
                findings.append(host_finding(
                    "HT301", relpath, lineno,
                    "%s reads the append-only %s file in text mode; "
                    "read bytes and decode per record so a torn tail "
                    "costs one line, not the file"
                    % (facts.qualname, class_name),
                ))
    return findings


def _determinism_findings(tree, relpath):
    """HD401/HD402/HD403 over one simulation-core module."""
    findings = []
    banned_modules = {"time", "random"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".", 1)[0]
                if root in banned_modules:
                    findings.append(host_finding(
                        "HD401", relpath, node.lineno,
                        "import of %r: the simulator core must be a pure "
                        "function of its inputs" % alias.name,
                    ))
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".", 1)[0]
            if root in banned_modules and node.level == 0:
                findings.append(host_finding(
                    "HD401", relpath, node.lineno,
                    "import from %r: the simulator core must be a pure "
                    "function of its inputs" % node.module,
                ))
        elif isinstance(node, ast.Call):
            target = _call_name(node.func)
            if target == ("", "id"):
                findings.append(host_finding(
                    "HD402", relpath, node.lineno,
                    "id() value feeds simulation state; identities vary "
                    "across runs and hosts",
                ))
        iters = []
        if isinstance(node, ast.For):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
        for iter_node in iters:
            if _is_unordered_set(iter_node):
                findings.append(host_finding(
                    "HD403", relpath, iter_node.lineno,
                    "iteration order over a set is hash-seed dependent; "
                    "sort it (sorted(...)) before it feeds simulation "
                    "state",
                ))
    return findings


def _is_unordered_set(node):
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        target = _call_name(node.func)
        return target in (("", "set"), ("", "frozenset"))
    return False


def analyze_source(source, spec, relpath):
    """Lint one module's source text against *spec*; returns findings."""
    tree = ast.parse(source, filename=relpath)
    findings = []
    if spec.determinism:
        findings.extend(_determinism_findings(tree, relpath))
    if (spec.attr_seeds or spec.call_seeds or spec.subscript_seeds
            or spec.param_seeds):
        functions = _collect_functions(tree, spec, relpath)
        findings.extend(_lockset_findings(functions, spec, relpath))
        findings.extend(_durability_findings(functions, spec, relpath))
    return findings
