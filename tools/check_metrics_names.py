#!/usr/bin/env python3
"""Lint metric names used at Get{Counter,Gauge,Histogram} call sites.

The registry already CHECK-fails on a bad name at runtime, but only on code
paths a test actually executes. This lint makes the naming convention a
build-time property: it scans every C++ source under src/, tools/, bench/,
and tests/ for string literals passed to GetCounter / GetGauge / GetHistogram
and validates them against the scheme documented in docs/observability.md:

    deepmap_<subsystem>_<name>_total    counters
    deepmap_<subsystem>_<name>          gauges
    deepmap_<subsystem>_<name>_seconds  histograms

with every token matching [a-z][a-z0-9]* (first char of later tokens may be a
digit) and at least three tokens overall. Mirrors ValidateMetricName in
src/obs/metrics.cc — keep the two in sync.

Usage: check_metrics_names.py [repo_root]
Exit status: 0 clean, 1 violations found.
"""

import re
import sys
from pathlib import Path

SCAN_DIRS = ("src", "tools", "bench", "tests")
SUFFIXES = {".cc", ".cpp", ".h", ".hpp"}

# GetCounter("literal"...  — allow the call to be split across lines between
# the paren and the string. Names built at runtime (no literal first arg) are
# skipped here; the registry still validates them when the code runs. Group 3
# captures what follows the literal: a `+` means the literal is only a prefix
# of a runtime-composed name.
CALL_RE = re.compile(
    r'\bGet(Counter|Gauge|Histogram)\s*\(\s*"([^"]*)"\s*([+,)])', re.MULTILINE)

TOKEN_RE = re.compile(r"[a-z0-9]+")

# constexpr char kFoo[] = "deepmap_...";  — call sites that pass a named
# constant (model_registry.cc does this for the reload counters) are
# invisible to CALL_RE, so metric-name constants are scanned separately. The
# kind is inferred from the reserved suffix.
NAME_CONST_RE = re.compile(
    r'\bconstexpr\s+char\s+\w+\s*\[\]\s*=\s*"(deepmap_[^"]*)"', re.MULTILINE)

KIND_SUFFIX = {
    "Counter": "_total",
    "Histogram": "_seconds",
}

# Families that must exist somewhere in the tree: dashboards and the serving
# runbook reference these by name, so silently renaming (or dropping) one is
# a break even though every remaining literal still lints clean. Maps name ->
# the Get* kind it must be registered with.
REQUIRED_FAMILIES = {
    # Supervision / self-healing (HealthMetrics; docs/robustness.md).
    "deepmap_serve_health_hangs_total": "Counter",
    "deepmap_serve_health_crashes_total": "Counter",
    "deepmap_serve_health_restarts_total": "Counter",
    "deepmap_serve_health_redispatched_total": "Counter",
    "deepmap_serve_health_quarantined_total": "Counter",
    "deepmap_serve_health_unhealthy_replicas": "Gauge",
    # Versioned hot reload (ModelRegistry + the cluster swap counter).
    "deepmap_serve_reload_attempts_total": "Counter",
    "deepmap_serve_reload_success_total": "Counter",
    "deepmap_serve_reload_rollback_total": "Counter",
    "deepmap_serve_reload_breaker_open_total": "Counter",
    "deepmap_serve_reload_swaps_total": "Counter",
    # Dynamic-graph serving (ClassifyDelta; docs/serving.md).
    "deepmap_serve_dynamic_updates_total": "Counter",
    "deepmap_serve_dynamic_incremental_hits_total": "Counter",
    "deepmap_serve_dynamic_full_recomputes_total": "Counter",
}


def validate_prefix(name: str) -> str | None:
    """Checks a literal that is concatenated with runtime parts — only the
    prefix structure can be validated statically; the registry CHECKs the
    full name at runtime."""
    tokens = name.split("_")
    if tokens and tokens[-1] == "":
        tokens = tokens[:-1]  # "deepmap_serve_" + x: trailing _ joins parts
    if not tokens or tokens[0] != "deepmap":
        return "must start with deepmap_"
    for token in tokens:
        if not TOKEN_RE.fullmatch(token):
            return f"token {token!r} must match [a-z0-9]+"
    return None


def validate(kind: str, name: str) -> str | None:
    """Returns an error message, or None when the name is valid."""
    tokens = name.split("_")
    if len(tokens) < 3:
        return "needs at least deepmap_<subsystem>_<name>"
    for token in tokens:
        if not token:
            return "empty token (double or trailing underscore)"
        if not TOKEN_RE.fullmatch(token):
            return f"token {token!r} must match [a-z0-9]+"
    if tokens[0] != "deepmap":
        return "must start with deepmap_"
    suffix = KIND_SUFFIX.get(kind)
    if suffix is not None:
        if not name.endswith(suffix):
            return f"{kind.lower()} must end with {suffix}"
    else:  # gauge: neither reserved suffix
        if name.endswith("_total") or name.endswith("_seconds"):
            return "gauge must not use a _total/_seconds suffix"
    return None


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent.parent
    violations = []
    scanned = 0
    checked = 0
    seen = {}  # name -> kind, for the required-families check
    for top in SCAN_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SUFFIXES:
                continue
            scanned += 1
            text = path.read_text(encoding="utf-8", errors="replace")
            for match in CALL_RE.finditer(text):
                kind, name, tail = match.group(1), match.group(2), match.group(3)
                # Deliberately invalid names inside death tests assert that
                # the registry rejects them — the lint must not flag those.
                if "EXPECT_DEATH" in text[max(0, match.start() - 160):match.start()]:
                    continue
                checked += 1
                if tail != "+":
                    seen.setdefault(name, kind)
                error = (validate_prefix(name) if tail == "+"
                         else validate(kind, name))
                if error:
                    line = text.count("\n", 0, match.start()) + 1
                    violations.append(
                        f"{path.relative_to(root)}:{line}: "
                        f"Get{kind}(\"{name}\"): {error}")
            for match in NAME_CONST_RE.finditer(text):
                name = match.group(1)
                kind = ("Counter" if name.endswith("_total") else
                        "Histogram" if name.endswith("_seconds") else "Gauge")
                checked += 1
                seen.setdefault(name, kind)
                error = validate(kind, name)
                if error:
                    line = text.count("\n", 0, match.start()) + 1
                    violations.append(
                        f"{path.relative_to(root)}:{line}: "
                        f"constant \"{name}\": {error}")
    for name, kind in sorted(REQUIRED_FAMILIES.items()):
        if name not in seen:
            violations.append(
                f"required metric family {name!r} is not registered anywhere "
                f"(expected a Get{kind}(\"{name}\") call site)")
        elif seen[name] != kind:
            violations.append(
                f"required metric family {name!r} is registered as "
                f"Get{seen[name]}, expected Get{kind}")
    for violation in violations:
        print(violation)
    print(f"check_metrics_names: {checked} metric names across "
          f"{scanned} files, {len(violations)} violation(s)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
