"""Determinism rules: DET001 (unseeded randomness), DET002 (set iteration).

Every stochastic draw in this reproduction must come from a numpy
``Generator`` built by an explicitly seeded ``np.random.default_rng(seed)``
and passed to the code that draws, and no numeric result may depend on the
iteration order of an unordered container. These are the two properties
that make ExCR learning and IQX fits bit-repeatable under a seed.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set

from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, register

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.lint.engine import ModuleInfo

__all__ = ["UnseededRandomness", "SetIteration", "dotted_name"]

# numpy.random attributes that are fine to touch: types, seeding
# constructors (argument presence is checked separately for default_rng).
_NP_RANDOM_OK = {"Generator", "BitGenerator", "SeedSequence", "PCG64", "Philox", "MT19937", "SFC64", "default_rng"}


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@register
class UnseededRandomness(Rule):
    rule_id = "DET001"
    summary = "unseeded or global-state randomness"
    rationale = (
        "Draws from the stdlib `random` module, legacy `np.random.*` "
        "global-state functions, or an argument-less `default_rng()` are "
        "not tied to the experiment seed, so results cannot be reproduced. "
        "Take a `np.random.Generator` parameter and pass it a seeded "
        "`np.random.default_rng(seed)`."
    )

    def begin_module(self, module: "ModuleInfo") -> None:
        # Aliases for the stdlib random module, numpy, numpy.random, and
        # names from-imported out of them.
        self._random_mods: Set[str] = set()
        self._numpy_mods: Set[str] = set()
        self._np_random_mods: Set[str] = set()
        self._from_random: Dict[str, str] = {}  # local name -> origin fn
        self._from_np_random: Dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        self._random_mods.add(local)
                    elif alias.name == "numpy":
                        self._numpy_mods.add(local)
                    elif alias.name == "numpy.random":
                        if alias.asname:
                            self._np_random_mods.add(alias.asname)
                        else:
                            self._numpy_mods.add("numpy")
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random":
                    for alias in node.names:
                        self._from_random[alias.asname or alias.name] = alias.name
                elif node.module == "numpy.random":
                    for alias in node.names:
                        self._from_np_random[alias.asname or alias.name] = alias.name
                elif node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            self._np_random_mods.add(alias.asname or "random")

    def visit_Call(self, node: ast.Call, module: "ModuleInfo") -> Iterator[Finding]:
        name = dotted_name(node.func)
        if name is None:
            return iter(())
        findings: List[Finding] = []
        head, _, rest = name.partition(".")

        # stdlib random: any call through the module object or a
        # from-imported function (random.Random(seed) included — audit and
        # suppress deliberately if a non-numeric shuffle really needs it).
        if head in self._random_mods and rest:
            findings.append(
                self.finding(
                    module,
                    node,
                    f"call to stdlib `{name}` bypasses the experiment seed; "
                    "pass a seeded `np.random.default_rng(seed)` Generator instead",
                )
            )
        elif not rest and head in self._from_random:
            origin = self._from_random[head]
            findings.append(
                self.finding(
                    module,
                    node,
                    f"call to stdlib `random.{origin}` bypasses the experiment "
                    "seed; pass a seeded `np.random.default_rng(seed)` Generator "
                    "instead",
                )
            )

        # numpy.random global state / unseeded default_rng.
        np_attr = self._numpy_random_attr(name)
        if np_attr is not None:
            if np_attr == "default_rng":
                if not node.args and not node.keywords:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            "`default_rng()` without a seed draws from OS "
                            "entropy; pass the experiment seed: "
                            "`np.random.default_rng(seed)`",
                        )
                    )
            elif np_attr not in _NP_RANDOM_OK:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"legacy `numpy.random.{np_attr}` uses hidden global "
                        "state; use a seeded Generator instead",
                    )
                )

        if not rest and head in self._from_np_random:
            origin = self._from_np_random[head]
            if origin == "default_rng":
                if not node.args and not node.keywords:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            "`default_rng()` without a seed draws from OS "
                            "entropy; pass the experiment seed: "
                            "`np.random.default_rng(seed)`",
                        )
                    )
            elif origin not in _NP_RANDOM_OK:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"legacy `numpy.random.{origin}` uses hidden global "
                        "state; use a seeded Generator instead",
                    )
                )
        return iter(findings)

    def _numpy_random_attr(self, name: str) -> Optional[str]:
        """For `np.random.<fn>` / `npr.<fn>` calls, the `<fn>` part."""
        parts = name.split(".")
        if len(parts) >= 3 and parts[0] in self._numpy_mods and parts[1] == "random":
            return parts[2]
        if len(parts) >= 2 and parts[0] in self._np_random_mods:
            return parts[1]
        return None

# Calls through which iteration order is preserved from the first argument.
_ORDER_PRESERVING = {"enumerate", "list", "tuple", "iter", "reversed"}
# Calls that impose a deterministic order on any iterable.
_ORDER_FIXING = {"sorted"}
_SET_CONSTRUCTORS = {"set", "frozenset"}


@register
class SetIteration(Rule):
    rule_id = "DET002"
    summary = "iteration over an unordered set expression"
    rationale = (
        "Set iteration order depends on insertion history and hash "
        "randomisation of the interpreter process; when the loop feeds "
        "numeric accumulation or output ordering, runs stop being "
        "repeatable. Wrap the set in `sorted(...)`."
    )

    def visit_For(self, node: ast.For, module: "ModuleInfo") -> Iterator[Finding]:
        return self._check_iterable(node.iter, module)

    def visit_AsyncFor(
        self, node: ast.AsyncFor, module: "ModuleInfo"
    ) -> Iterator[Finding]:
        return self._check_iterable(node.iter, module)

    def visit_comprehension(
        self, node: ast.comprehension, module: "ModuleInfo"
    ) -> Iterator[Finding]:
        return self._check_iterable(node.iter, module)

    def _check_iterable(
        self, expr: ast.expr, module: "ModuleInfo"
    ) -> Iterator[Finding]:
        culprit = self._unordered_set_expr(expr)
        if culprit is not None:
            yield self.finding(
                module,
                expr,
                "iterating over an unordered set; wrap in `sorted(...)` so "
                "downstream numeric results do not depend on hash order",
            )

    def _unordered_set_expr(self, expr: ast.expr) -> Optional[ast.expr]:
        """The offending set expression, seen through order-preserving wrappers."""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return expr
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            name = expr.func.id
            if name in _ORDER_FIXING:
                return None
            if name in _SET_CONSTRUCTORS:
                return expr
            if name in _ORDER_PRESERVING and expr.args:
                return self._unordered_set_expr(expr.args[0])
        return None
