"""Vocabulary rules: the metric and event names are a checked contract.

The observability layer's value rests on one stable vocabulary: the
``serve_*`` / ``pipeline_*`` registry names that the exporters write,
that ``scripts/check_*.py`` assert against, and that the README tables
document.  Renaming a metric in code without updating the
docs (or vice versa) used to be an unreviewable silent drift; these rules
make it a CI failure:

* **metric-vocabulary** -- every registered name matches the
  ``<subsystem>_<quantity>[_<unit>|_total]`` grammar, carries the suffix
  its kind demands, is registered from exactly one call site, and the
  README / ``scripts/check_*.py`` references and the registrations agree
  in *both* directions (histogram ``_bucket``/``_count``/``_sum`` series
  are recognised as derived), and
* **event-vocabulary** -- every ``emit("kind", ...)`` kind is
  lower_snake_case and documented in the README.

Documentation sources are scanned as text (with ``{a,b}`` brace sets
expanded), so a metric renamed in ``serve/metrics.py`` fails the gate
until the README row moves with it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, Optional

from repro.analysis.framework import Finding, Rule
from repro.analysis.loader import Project

#: Registered metric names must match this grammar.
METRIC_NAME_RE = re.compile(r"^(serve|pipeline)_[a-z][a-z0-9_]*$")

#: Event kinds must be lower_snake_case.
EVENT_KIND_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: Candidate vocabulary tokens in documentation text.
_DOC_TOKEN_RE = re.compile(r"\b(?:serve|pipeline)_[a-z0-9_]*[a-z0-9]")

#: Single-level brace sets in docs: ``serve_rollout_{promotions,demotions}_total``.
_BRACE_RE = re.compile(r"\{([a-z0-9_,\s]+)\}")

#: Derived histogram series suffixes accepted in docs.
_HISTOGRAM_SUFFIXES = ("_bucket", "_count", "_sum")


def _expand_braces(text: str) -> str:
    """Append brace-set expansions so doc tokens match registrations.

    ``a_{x,y}_b`` contributes ``a_x_b`` and ``a_y_b``; the original text
    is kept too.  One level only -- the docs do not nest.
    """
    expansions: list[str] = []

    def expand(match: re.Match) -> None:
        start = match.start()
        end = match.end()
        prefix = re.search(r"[a-z0-9_]*$", text[:start]).group(0)
        suffix = re.match(r"[a-z0-9_]*", text[end:]).group(0)
        for option in match.group(1).split(","):
            expansions.append(prefix + option.strip() + suffix)

    for match in _BRACE_RE.finditer(text):
        if "," in match.group(1):  # {model} / {shard=...} are label refs
            expand(match)
    return text + "\n" + "\n".join(expansions)


def _doc_sources(project: Project) -> list[tuple[str, Path]]:
    """(label, path) pairs of the documentation the vocabulary must match."""
    sources: list[tuple[str, Path]] = []
    root = project.repo_root
    if root is None:
        return sources
    readme = root / "README.md"
    if readme.exists():
        sources.append(("README.md", readme))
    scripts_dir = root / "scripts"
    if scripts_dir.is_dir():
        for path in sorted(scripts_dir.glob("check_*.py")):
            sources.append((f"scripts/{path.name}", path))
    return sources


class MetricVocabularyRule(Rule):
    """Registered metric names: grammar, kind suffix, uniqueness, doc sync."""

    name = "metric-vocabulary"
    description = (
        "serve_*/pipeline_* grammar with kind-appropriate suffixes, one "
        "registration site per name, and two-way agreement with README "
        "and scripts/check_*.py"
    )
    hazard = (
        "a renamed or duplicated metric silently splits dashboards, "
        "baselines and CI assertions"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        registrations: dict[str, list[tuple[str, int, str]]] = {}
        for module in project.modules.values():
            if module.name.startswith(f"{project.package}.analysis"):
                continue
            for reg in module.metric_registrations:
                registrations.setdefault(reg.name, []).append(
                    (module.rel_path, reg.line, reg.kind)
                )

        for name in sorted(registrations):
            sites = registrations[name]
            path, line, kind = sites[0]
            if not METRIC_NAME_RE.match(name):
                yield self.finding(
                    path,
                    line,
                    f"metric {name!r} does not match the "
                    "<serve|pipeline>_<lower_snake> naming grammar",
                )
            yield from self._check_suffix(name, kind, path, line)
            distinct_sites = {(p, l) for p, l, _ in sites}
            if len(distinct_sites) > 1:
                rendered = ", ".join(
                    f"{p}:{l}" for p, l in sorted(distinct_sites)
                )
                yield self.finding(
                    path,
                    line,
                    f"metric {name!r} is registered from "
                    f"{len(distinct_sites)} call sites ({rendered}) -- one "
                    "owner per name; share the metric object instead",
                )
            kinds = {k for _, _, k in sites}
            if len(kinds) > 1:
                yield self.finding(
                    path,
                    line,
                    f"metric {name!r} is registered as multiple kinds "
                    f"({', '.join(sorted(kinds))})",
                )

        yield from self._check_docs(project, registrations)

    def _check_suffix(
        self, name: str, kind: str, path: str, line: int
    ) -> Iterator[Finding]:
        if kind == "counter" and not name.endswith(("_total", "_sum")):
            yield self.finding(
                path,
                line,
                f"counter {name!r} must end in _total (events) or _sum "
                "(summed quantities)",
            )
        elif kind == "histogram" and not name.endswith("_seconds"):
            yield self.finding(
                path,
                line,
                f"histogram {name!r} must carry its unit suffix "
                "(durations are recorded in _seconds)",
            )
        elif kind == "gauge" and name.endswith(("_total", "_sum")):
            yield self.finding(
                path,
                line,
                f"gauge {name!r} must not use the cumulative _total/_sum "
                "suffixes reserved for counters",
            )

    def _normalise_doc_token(
        self, token: str, registered: dict
    ) -> Optional[str]:
        """Map a doc token to the registration it refers to, if any."""
        if token in registered:
            return token
        for suffix in _HISTOGRAM_SUFFIXES:
            if token.endswith(suffix):
                base = token[: -len(suffix)]
                sites = registered.get(base)
                if sites and any(kind == "histogram" for _, _, kind in sites):
                    return base
        return None

    def _check_docs(
        self, project: Project, registered: dict
    ) -> Iterator[Finding]:
        sources = _doc_sources(project)
        if not sources:
            return
        readme_documented: set[str] = set()

        def scan(
            label: str, lines: list[str], first_lineno: int, is_readme: bool
        ):
            for offset, raw_line in enumerate(lines):
                # Brace expansions (``x_{a,b}_total``) only *document*
                # names; staleness is judged on raw tokens, where the
                # trailing context disambiguates wildcards and label refs.
                for token in _DOC_TOKEN_RE.findall(_expand_braces(raw_line)):
                    resolved = self._normalise_doc_token(token, registered)
                    if resolved is not None and is_readme:
                        readme_documented.add(resolved)
                for match in _DOC_TOKEN_RE.finditer(raw_line):
                    token = match.group(0)
                    if self._normalise_doc_token(token, registered):
                        continue
                    trailing = raw_line[match.end() : match.end() + 2]
                    if trailing.startswith(("{", "_{")) or trailing in (
                        "_*",
                        "*",
                    ):
                        # Label reference (``name{model=...}``) or prefix
                        # wildcard (``serve_shadow_*``): fine as long as
                        # some registration matches the prefix.
                        if any(
                            name == token or name.startswith(token + "_")
                            for name in registered
                        ):
                            continue
                    if METRIC_NAME_RE.match(token):
                        yield self.finding(
                            label,
                            first_lineno + offset,
                            f"documented metric {token!r} resolves to no "
                            "registration -- stale doc reference or a "
                            "renamed metric",
                        )

        for label, path in sources:
            text = path.read_text(encoding="utf-8")
            yield from scan(
                label, text.splitlines(), 1, is_readme=label == "README.md"
            )

        # Module docstrings hold the in-tree vocabulary tables
        # (serve/metrics.py, pipeline/metrics.py); keep them in sync too.
        for module in project.modules.values():
            if module.name.startswith(f"{project.package}.analysis"):
                continue
            docstring = ast.get_docstring(module.tree, clean=False)
            if not docstring:
                continue
            start = module.tree.body[0].lineno
            yield from scan(
                module.rel_path, docstring.splitlines(), start, is_readme=False
            )

        # Every registered metric must appear in the README vocabulary --
        # renaming one in code without moving its README row fails here.
        for name in sorted(set(registered) - readme_documented):
            path, line, _ = registered[name][0]
            yield self.finding(
                path,
                line,
                f"metric {name!r} is registered but absent from the README "
                "metric tables -- document it (operators discover the "
                "vocabulary there)",
            )


class EventVocabularyRule(Rule):
    """Emitted event kinds: lower_snake_case and documented in the README."""

    name = "event-vocabulary"
    description = (
        "every emit(...) kind is lower_snake_case and appears "
        "backtick-quoted in the README"
    )
    hazard = "undocumented lifecycle events are invisible to operators"

    def check(self, project: Project) -> Iterator[Finding]:
        readme_text = ""
        if project.repo_root is not None:
            readme = project.repo_root / "README.md"
            if readme.exists():
                readme_text = readme.read_text(encoding="utf-8")
        for module in project.modules.values():
            if module.name.startswith(f"{project.package}.analysis"):
                continue
            for emission in module.event_emissions:
                kind = emission.kind
                if not EVENT_KIND_RE.match(kind):
                    yield self.finding(
                        module.rel_path,
                        emission.line,
                        f"event kind {kind!r} is not lower_snake_case",
                    )
                    continue
                if readme_text and f"`{kind}`" not in readme_text:
                    yield self.finding(
                        module.rel_path,
                        emission.line,
                        f"event kind {kind!r} is emitted but not documented "
                        "in the README (expected a backtick-quoted mention)",
                    )
