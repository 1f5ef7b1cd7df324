"""Repo-invariant AST lint.

A small framework of ``ast``-based rules encoding invariants this
codebase relies on but Python cannot express.  Run it as::

    python -m repro.analysis.lint src/

Exit status is non-zero iff any violation is found.  Each rule carries a
documented rationale (``--list-rules`` prints the catalog) and every
violation can be locally waived with a trailing comment on the offending
line::

    x = a.astype(np.float32)  # lint: allow(dtype-width)

Rule catalog (details in ``docs/architecture.md``):

- ``thread-confinement`` — ``threading``/``queue``/``multiprocessing``
  (``shared_memory`` included)/``mmap`` imports and ``os.fork`` are
  confined to the two transports, ``repro/parallel/simmpi.py`` (rank
  threads) and ``repro/parallel/procworld.py`` (rank processes).
- ``native-confinement`` — ``ctypes``/``cffi`` imports and
  ``subprocess`` (the compiler's) are confined to
  ``repro/kernels/native.py``, the one module that builds and loads
  foreign code.
- ``dtype-width`` — no narrowing numpy dtypes in ``core/``/``linalg/``.
- ``bufferpool-escape`` — ``BufferPool`` scratch buffers must not be
  returned from the function that drew them.
- ``mutable-default`` — no mutable default argument values.
- ``request-waited`` — every ``irecv`` Request in ``repro/parallel/``
  must reach ``wait()``/``waitall()`` or escape to a caller.
- ``tag-registry`` — every message tag in ``repro/parallel/`` must be
  minted by ``mk_tag`` (the structured-tag registry in ``simmpi.py``)
  or be a plain variable carrying one; ad-hoc literal/constructed tags
  are invisible to the static communication verifier.

Paths are scoped by the file's position inside the ``repro`` package
(the path segment from the last ``repro`` component), so fixture trees
that mirror the package layout are linted identically.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\(([^)]*)\)")


@dataclass
class Violation:
    rule: str
    path: Path
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class Module:
    """A parsed source file plus the metadata rules need."""

    path: Path
    rel: str  # package-relative posix path, e.g. "repro/core/plan.py"
    tree: ast.Module
    allows: dict[int, set[str]]  # line -> rule names waived on that line

    def in_package(self, *parts: str) -> bool:
        return self.rel.startswith("repro/" + "/".join(parts))


def _package_rel(path: Path) -> str:
    parts = path.parts
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[idx:])
    return path.name


def parse_module(path: Path) -> Module:
    text = path.read_text(encoding="utf-8")
    allows: dict[int, set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = _ALLOW_RE.search(line)
        if m:
            allows[lineno] = {r.strip() for r in m.group(1).split(",") if r.strip()}
    return Module(
        path=path,
        rel=_package_rel(path),
        tree=ast.parse(text, filename=str(path)),
        allows=allows,
    )


def own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body, *excluding* nested function/class bodies.

    Nested defs are yielded themselves (so rules can see they exist) but
    their bodies belong to their own scope.
    """
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            stack.extend(ast.iter_child_nodes(node))


def functions(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


class Rule:
    """Base class: subclasses set ``name``/``rationale`` and ``check``."""

    name = "abstract"
    rationale = ""

    def check(self, mod: Module) -> Iterator[Violation]:  # pragma: no cover
        raise NotImplementedError

    def _v(self, mod: Module, line: int, message: str) -> Violation:
        return Violation(rule=self.name, path=mod.path, line=line, message=message)


class ThreadConfinementRule(Rule):
    name = "thread-confinement"
    rationale = (
        "All concurrency lives in the two transports under SimComm — "
        "rank threads in parallel/simmpi.py, rank processes and their "
        "shared-memory mailbox in parallel/procworld.py; numerics, tree "
        "code and the analyzers are single-threaded by contract, which "
        "is what makes the comm-trace analysis sound (per-rank event "
        "lists need no locks) and keeps the rest of the codebase "
        "schedule independent.  A fork or a shared mapping elsewhere is "
        "a second process world no verifier knows about."
    )

    #: Top-level modules, and the one function, only a transport may use.
    _BANNED = {
        "threading", "queue", "multiprocessing", "concurrent", "mmap",
        "os.fork",
    }
    _ALLOWED = ("repro/parallel/simmpi.py", "repro/parallel/procworld.py")

    def check(self, mod: Module) -> Iterator[Violation]:
        if mod.rel in self._ALLOWED:
            return
        for node in ast.walk(mod.tree):
            used: list[str] = []
            if isinstance(node, ast.Import):
                used = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                used = [f"os.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                used = [node.module.split(".")[0]]
            elif isinstance(node, ast.Attribute) and node.attr == "fork":
                used = ["os.fork"]
            for name in used:
                if name in self._BANNED:
                    yield self._v(
                        mod, node.lineno,
                        f"use of {name!r} outside "
                        f"{' and '.join(self._ALLOWED)} — concurrency is "
                        f"confined to the transports under SimComm",
                    )


class NativeConfinementRule(Rule):
    name = "native-confinement"
    rationale = (
        "Foreign code enters in one place: repro/kernels/native.py builds "
        "the compiled pair loops with the host's compiler, loads them "
        "with ctypes and checks every index and array layout before a "
        "call, because a C loop given a bad index corrupts memory instead "
        "of raising.  A ctypes/cffi import or a subprocess (a compiler "
        "run) anywhere else is foreign code no bounds check guards."
    )

    _BANNED = {"ctypes", "cffi", "subprocess"}
    _ALLOWED = "repro/kernels/native.py"

    def check(self, mod: Module) -> Iterator[Violation]:
        if mod.rel == self._ALLOWED:
            return
        for node in ast.walk(mod.tree):
            used: list[str] = []
            if isinstance(node, ast.Import):
                used = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                used = [node.module.split(".")[0]]
            for name in used:
                if name in self._BANNED:
                    yield self._v(
                        mod, node.lineno,
                        f"use of {name!r} outside {self._ALLOWED} — "
                        f"foreign code is built, loaded and bounds-checked "
                        f"there only",
                    )


class DtypeWidthRule(Rule):
    name = "dtype-width"
    rationale = (
        "The solver stack (regularised pseudo-inverses, M2L, GMRES) "
        "assumes float64 end to end; a narrowing constructor "
        "in core/ or linalg/ silently degrades the 1e-5 accuracy target "
        "of the paper's experiments.  Narrow dtypes are fine elsewhere "
        "(e.g. the uint8 usage-mask compression in parallel/let.py)."
    )

    _NARROW = {
        "float16", "float32", "complex64", "int8", "int16", "int32",
        "uint8", "uint16", "uint32", "half", "single", "csingle",
    }

    def _narrow_name(self, node: ast.AST) -> str | None:
        if isinstance(node, ast.Attribute) and node.attr in self._NARROW:
            return node.attr
        if isinstance(node, ast.Name) and node.id in self._NARROW:
            return node.id
        if isinstance(node, ast.Constant) and node.value in self._NARROW:
            return str(node.value)
        return None

    def check(self, mod: Module) -> Iterator[Violation]:
        if not (mod.in_package("core") or mod.in_package("linalg")):
            return
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            candidates: list[ast.AST] = [
                kw.value for kw in node.keywords if kw.arg == "dtype"
            ]
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
                and node.args
            ):
                candidates.append(node.args[0])
            for cand in candidates:
                narrow = self._narrow_name(cand)
                if narrow:
                    yield self._v(
                        mod, node.lineno,
                        f"narrowing dtype {narrow!r} in the float64 "
                        f"solver core",
                    )


class BufferPoolEscapeRule(Rule):
    name = "bufferpool-escape"
    rationale = (
        "BufferPool scratch arrays are recycled on the next apply(): a "
        "buffer (or a view of one) returned to a caller aliases memory "
        "that will be silently overwritten, corrupting results one "
        "evaluation later.  Results that outlive a plan stage must be "
        "copied into fresh arrays (as the planned evaluator does for "
        "its output potential).  Tracking is function-local and follows "
        "direct bindings plus subscript/reshape/view aliases."
    )

    _VIEW_ATTRS = {"reshape", "view", "ravel", "transpose", "swapaxes"}

    def _is_pool_receiver(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return "pool" in node.id.lower()
        if isinstance(node, ast.Attribute):
            return "pool" in node.attr.lower() or node.attr == "buffers"
        return False

    def _is_pool_draw(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("zeros", "empty")
            and self._is_pool_receiver(node.func.value)
        )

    def _base_name(self, node: ast.AST) -> str | None:
        """The root Name of a subscript/view-method chain, if any."""
        while True:
            if isinstance(node, ast.Name):
                return node.id
            if isinstance(node, ast.Subscript):
                node = node.value
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._VIEW_ATTRS
            ):
                node = node.func.value
            elif isinstance(node, ast.Attribute) and node.attr == "T":
                node = node.value
            else:
                return None

    def check(self, mod: Module) -> Iterator[Violation]:
        for func in functions(mod.tree):
            tracked: set[str] = set()
            nodes = [
                n for n in own_nodes(func)
                if isinstance(n, (ast.Assign, ast.Return, ast.Yield))
            ]
            nodes.sort(key=lambda n: (n.lineno, n.col_offset))
            for n in nodes:
                if isinstance(n, ast.Assign):
                    value_tracked = self._is_pool_draw(n.value) or (
                        self._base_name(n.value) in tracked
                    )
                    for t in n.targets:
                        if isinstance(t, ast.Name):
                            if value_tracked:
                                tracked.add(t.id)
                            else:
                                tracked.discard(t.id)  # rebound to fresh data
                elif n.value is not None:
                    escapes = self._is_pool_draw(n.value) or (
                        self._base_name(n.value) in tracked
                    )
                    if escapes:
                        kind = "returns" if isinstance(n, ast.Return) else "yields"
                        yield self._v(
                            mod, n.lineno,
                            f"function {func.name!r} {kind} a BufferPool "
                            f"scratch buffer (or a view of one); it will "
                            f"be overwritten on the next apply()",
                        )


class MutableDefaultRule(Rule):
    name = "mutable-default"
    rationale = (
        "A mutable default is created once at def time and shared across "
        "calls — state leaks between FMM evaluations and between "
        "simulated ranks.  Use None plus an in-body default, or "
        "dataclasses.field(default_factory=...)."
    )

    def check(self, mod: Module) -> Iterator[Violation]:
        for func in functions(mod.tree):
            defaults = [*func.args.defaults, *func.args.kw_defaults]
            for d in defaults:
                if d is None:
                    continue
                mutable = isinstance(d, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(d, ast.Call)
                    and isinstance(d.func, ast.Name)
                    and d.func.id in ("list", "dict", "set", "bytearray")
                    and not d.args
                    and not d.keywords
                )
                if mutable:
                    yield self._v(
                        mod, d.lineno,
                        f"mutable default argument in {func.name!r}",
                    )


class RequestWaitedRule(Rule):
    name = "request-waited"
    rationale = (
        "A nonblocking irecv whose Request is dropped leaves the posted "
        "receive dangling: the matching send is consumed by nobody, the "
        "mailbox leaks (MailboxLeakError at best, a silent lost message "
        "at worst) and the happens-before edge the wait() would have "
        "merged never forms — exactly the ordering gap the race "
        "detector flags.  Every Request bound in repro/parallel/ must "
        "reach wait() or waitall() in the same function, or escape to a "
        "caller (returned, yielded, stored on an object, or passed to "
        "another callable) that assumes the completion obligation."
    )

    _WAIT_ATTRS = {"wait", "waitall"}

    def _is_irecv(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "irecv"
        )

    def _contains_irecv(self, node: ast.AST) -> bool:
        return any(self._is_irecv(n) for n in ast.walk(node))

    @staticmethod
    def _names_in(node: ast.AST) -> set[str]:
        return {
            n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }

    def check(self, mod: Module) -> Iterator[Violation]:
        if not mod.in_package("parallel"):
            return
        for func in functions(mod.tree):
            nodes = list(own_nodes(func))
            # Requests bound to a local name: name -> irecv line.
            pending: dict[str, int] = {}
            waited: set[str] = set()   # names with a direct x.wait()
            escaped: set[str] = set()  # names whose obligation moved on
            aliases: dict[str, str] = {}  # loop/comprehension var -> iterable
            for n in nodes:
                if isinstance(n, ast.Assign) and self._contains_irecv(n.value):
                    for t in n.targets:
                        targets = t.elts if isinstance(t, ast.Tuple) else [t]
                        for el in targets:
                            if isinstance(el, ast.Name):
                                pending.setdefault(el.id, n.lineno)
                            else:  # stored on an object: caller's duty
                                pass
                elif isinstance(n, ast.Expr) and self._is_irecv(n.value):
                    yield self._v(
                        mod, n.lineno,
                        f"function {func.name!r} discards an irecv Request; "
                        f"the posted receive can never be waited",
                    )
            for n in nodes:
                if isinstance(n, ast.Call):
                    if (
                        isinstance(n.func, ast.Attribute)
                        and n.func.attr in self._WAIT_ATTRS
                    ):
                        if isinstance(n.func.value, ast.Name):
                            waited.add(n.func.value.id)
                        for arg in n.args:
                            waited |= self._names_in(arg)
                    else:
                        # Passing a Request (or a container holding one)
                        # to any other callable hands off the obligation.
                        for arg in [*n.args, *(k.value for k in n.keywords)]:
                            escaped |= self._names_in(arg)
                elif isinstance(n, (ast.Return, ast.Yield)) and n.value:
                    escaped |= self._names_in(n.value)
                elif isinstance(n, ast.Assign):
                    if any(
                        isinstance(t, (ast.Attribute, ast.Subscript))
                        for t in n.targets
                    ):
                        escaped |= self._names_in(n.value)
                elif isinstance(n, (ast.For, ast.comprehension)):
                    if isinstance(n.target, ast.Name) and isinstance(
                        n.iter, ast.Name
                    ):
                        aliases[n.target.id] = n.iter.id
            for name in waited:
                escaped.add(name)
                escaped.add(aliases.get(name, name))
            for name, lineno in sorted(pending.items(), key=lambda kv: kv[1]):
                if name not in escaped:
                    yield self._v(
                        mod, lineno,
                        f"Request {name!r} from irecv in {func.name!r} "
                        f"never reaches wait()/waitall() and never escapes "
                        f"the function",
                    )


class TagRegistryRule(Rule):
    name = "tag-registry"
    rationale = (
        "The static communication verifier (repro commir) certifies "
        "tag-space disjointness from the mk_tag registry in "
        "repro/parallel/simmpi.py: every family declares its id arity "
        "once and every tag is the structured tuple the registry "
        "mints.  An ad-hoc tag — a bare string/int literal, a "
        "hand-built tuple, or string arithmetic — bypasses the "
        "registry, so nothing stops it colliding with a registered "
        "family's tag on the same channel, where a concurrently "
        "posted receive of the other phase can steal the message.  "
        "Every `tag=` handed to a send/recv/collective in "
        "repro/parallel/ must be a direct mk_tag(...) call or a plain "
        "variable that carries one (parameter passthrough; the mint "
        "site is checked where the tag is created)."
    )

    _COMM_OPS = {"send", "isend", "recv", "irecv"}

    @staticmethod
    def _is_mk_tag(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == "mk_tag")
            or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "mk_tag"
            )
        )

    def check(self, mod: Module) -> Iterator[Violation]:
        if not mod.in_package("parallel"):
            return
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            fname = None
            if isinstance(node.func, ast.Attribute):
                fname = node.func.attr
            elif isinstance(node.func, ast.Name):
                fname = node.func.id
            if fname not in self._COMM_OPS:
                continue
            for kw in node.keywords:
                if kw.arg != "tag":
                    continue
                val = kw.value
                if self._is_mk_tag(val) or isinstance(
                    val, (ast.Name, ast.Attribute)
                ):
                    continue
                yield self._v(
                    mod, val.lineno,
                    f"tag passed to {fname}() is not minted by the "
                    f"mk_tag registry (ad-hoc "
                    f"{type(val).__name__}) — unregistered tags "
                    f"can collide across concurrent phases",
                )


RULES: tuple[Rule, ...] = (
    ThreadConfinementRule(),
    NativeConfinementRule(),
    DtypeWidthRule(),
    BufferPoolEscapeRule(),
    MutableDefaultRule(),
    RequestWaitedRule(),
    TagRegistryRule(),
)


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    for p in paths:
        p = Path(p)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p


def lint_module(mod: Module, rules: Sequence[Rule] = RULES) -> list[Violation]:
    """Run every rule over one parsed module, honouring line waivers."""
    violations: list[Violation] = []
    for rule in rules:
        for v in rule.check(mod):
            if rule.name in mod.allows.get(v.line, ()):
                continue
            violations.append(v)
    return violations


def run_lint(
    paths: Iterable[str | Path], rules: Sequence[Rule] = RULES
) -> list[Violation]:
    """Lint every ``*.py`` under ``paths``; returns surviving violations.

    Violations on a line carrying ``# lint: allow(<rule>)`` are waived.
    """
    violations: list[Violation] = []
    for path in iter_python_files(paths):
        violations.extend(lint_module(parse_module(path), rules))
    violations.sort(key=lambda v: (str(v.path), v.line, v.rule))
    return violations


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.

    Exit status: 0 clean, 1 violations found, 2 usage error — a named
    path that does not exist, a file that cannot be read or parsed, or a
    path set that matches no Python files at all.  Every skipped input
    is reported; a lint run that silently linted nothing must not be
    mistakable for a clean one.
    """
    args = list(sys.argv[1:] if argv is None else argv)
    if "--list-rules" in args:
        for rule in RULES:
            print(f"{rule.name}:")
            print(f"    {rule.rationale}")
        return 0
    if not args:
        print("usage: python -m repro.analysis.lint [--list-rules] PATH...")
        return 2
    usage_error = False
    existing: list[str] = []
    for arg in args:
        if Path(arg).exists():
            existing.append(arg)
        else:
            print(f"lint: error: path {arg!r} does not exist",
                  file=sys.stderr)
            usage_error = True
    files = list(iter_python_files(existing))
    if not files:
        print("lint: error: no Python files found under "
              f"{', '.join(repr(a) for a in args)}", file=sys.stderr)
        return 2
    violations: list[Violation] = []
    for path in files:
        try:
            mod = parse_module(path)
        except (OSError, SyntaxError, UnicodeDecodeError) as exc:
            print(f"lint: error: skipped {path}: {exc}", file=sys.stderr)
            usage_error = True
            continue
        violations.extend(lint_module(mod))
    violations.sort(key=lambda v: (str(v.path), v.line, v.rule))
    for v in violations:
        print(v)
    status = "clean" if not violations else f"{len(violations)} violation(s)"
    print(f"lint: {len(files)} file(s), {len(RULES)} rule(s) — {status}")
    if usage_error:
        return 2
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests/CI
    sys.exit(main())
