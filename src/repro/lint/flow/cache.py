"""Incremental summary cache for the flow analyzer.

Per-file summaries are pure functions of file content, so they are cached
keyed on a sha256 content hash. A warm run re-indexes only

* files whose content hash changed (or that are new), **and**
* their *reverse-dependency cone* — every cached file that (transitively)
  imports a changed module, because the link step resolves its raw
  references against symbols the change may have moved.

Everything else is loaded from the cache verbatim. Because summaries are
content-pure, a warm run's findings are byte-identical to a cold run's —
CI asserts exactly that (the cache-correctness smoke step).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.flow.index import module_name
from repro.lint.flow.summary import FileSummary, content_hash, summarize_file

#: Default cache filename (working-directory relative, gitignored).
DEFAULT_CACHE = ".repro-lint-cache.json"

#: Cache schema version; bump on any summary format change.
CACHE_VERSION = 5


@dataclass
class FlowStats:
    """What the indexing stage did — surfaced by ``--flow`` runs."""

    total_files: int = 0
    reindexed: list[str] = field(default_factory=list)
    from_cache: int = 0

    @property
    def cache_hits(self) -> int:
        return self.from_cache


def iter_python_files(paths) -> list[Path]:
    """Expand files and directory trees into a sorted ``*.py`` list."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    unique: dict[str, Path] = {}
    for path in files:
        unique.setdefault(path.as_posix(), path)
    return [unique[key] for key in sorted(unique)]


class FlowCache:
    """Load/save the JSON summary cache."""

    def __init__(self, path):
        self.path = Path(path)
        self.entries: dict[str, dict] = {}

    def load(self) -> "FlowCache":
        if not self.path.exists():
            return self
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return self  # unreadable cache == cold run
        if data.get("version") != CACHE_VERSION:
            return self
        self.entries = dict(data.get("files", {}))
        return self

    def save(self, summaries: list[FileSummary]) -> None:
        data = {
            "version": CACHE_VERSION,
            "files": {
                summary.path: summary.to_json()
                for summary in sorted(summaries, key=lambda s: s.path)
            },
        }
        self.path.write_text(
            json.dumps(data, indent=None, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    def cached_summary(self, path: str, sha256: str) -> FileSummary | None:
        entry = self.entries.get(path)
        if entry is None or entry.get("sha256") != sha256:
            return None
        return FileSummary.from_json(entry)


def _reverse_cone(
    changed: set[str],
    cached: dict[str, FileSummary],
    modules: dict[str, str],
) -> set[str]:
    """Expand ``changed`` paths with every cached reverse-dependency."""
    # path -> modules it imports (from the *cached* summaries: the current
    # import set of an unchanged file equals its cached one).
    dirty_modules = {
        module for module, path in modules.items() if path in changed
    }
    cone = set(changed)
    changed_sizes = -1
    while changed_sizes != len(cone):
        changed_sizes = len(cone)
        for path, summary in cached.items():
            if path in cone:
                continue
            if any(module in dirty_modules for module in summary.import_modules):
                cone.add(path)
                dirty_modules.add(summary.module)
    return cone


def load_summaries(
    paths, cache_path=None, jobs: int = 1
) -> tuple[list[FileSummary], FlowStats]:
    """Summarize every file under ``paths``, via the cache when possible.

    Returns the summaries in sorted-path order plus a :class:`FlowStats`
    describing what had to be re-indexed.
    """
    from repro.parallel.pool import parallel_map

    files = iter_python_files(paths)
    stats = FlowStats(total_files=len(files))

    sources: dict[str, str] = {}
    modules: dict[str, str] = {}  # module -> path
    module_of: dict[str, str] = {}
    for path in files:
        key = path.as_posix()
        sources[key] = path.read_text(encoding="utf-8")
        module_of[key] = module_name(path)
        modules[module_of[key]] = key

    cache = FlowCache(cache_path).load() if cache_path is not None else None

    reused: dict[str, FileSummary] = {}
    to_index: list[str] = []
    if cache is None:
        to_index = list(sources)
    else:
        for key, source in sources.items():
            summary = cache.cached_summary(key, content_hash(source))
            if summary is None:
                to_index.append(key)
            else:
                reused[key] = summary
        cone = _reverse_cone(set(to_index), reused, modules)
        for key in sorted(cone - set(to_index)):
            reused.pop(key)
            to_index.append(key)

    to_index.sort()
    fresh = parallel_map(
        summarize_file, [(key, module_of[key]) for key in to_index], jobs
    )
    stats.reindexed = list(to_index)
    stats.from_cache = len(reused)

    summaries = {key: summary for key, summary in reused.items()}
    for summary in fresh:
        summaries[summary.path] = summary
    ordered = [summaries[key] for key in sorted(summaries)]

    if cache is not None:
        cache.save(ordered)
    return ordered, stats
