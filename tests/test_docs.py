"""Documentation gates: docstrings, link rot, and an executable quickstart.

Three checks keep the docs honest in CI:

* every public symbol exported from :mod:`repro` (and from
  ``repro.service`` / ``repro.index`` / ``repro.cluster`` /
  ``repro.utils``, the documented subsystem surfaces) carries a
  docstring — and so does every public method of the
  service/index/cluster API classes;
* every relative link and every referenced repository path inside
  ``docs/*.md`` and ``README.md`` resolves to a real file;
* the README quickstart snippet actually executes.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import pytest

import repro
import repro.cluster
import repro.graph
import repro.index
import repro.logdb
import repro.obs
import repro.service
import repro.utils

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS_DIR = REPO_ROOT / "docs"

#: Markdown files whose links and path references are gated.
DOC_FILES = sorted(DOCS_DIR.glob("*.md")) + [REPO_ROOT / "README.md"]

#: docs/ pages the README must link (the documentation tree satellite).
REQUIRED_DOC_PAGES = (
    "architecture.md",
    "service.md",
    "index.md",
    "logdb.md",
    "observability.md",
    "cluster.md",
    "graph.md",
)

#: Inline-code tokens that look like repository paths, e.g.
#: ``benchmarks/test_parallel_service.py`` or ``docs/service.md``.
_PATH_TOKEN = re.compile(r"`([A-Za-z0-9_.-]+(?:/[A-Za-z0-9_.-]+)+\.(?:py|md|json))`")

#: Markdown links: ``[text](target)``.
_MD_LINK = re.compile(r"\[[^\]]+\]\(([^)#\s]+)(?:#[^)\s]*)?\)")


def _public_symbols(module):
    for name in module.__all__:
        yield name, getattr(module, name)


class TestDocstrings:
    @pytest.mark.parametrize(
        "module",
        [
            repro,
            repro.service,
            repro.index,
            repro.logdb,
            repro.obs,
            repro.utils,
            repro.cluster,
            repro.graph,
        ],
        ids=lambda m: m.__name__,
    )
    def test_every_public_symbol_has_a_docstring(self, module):
        missing = []
        for name, symbol in _public_symbols(module):
            if isinstance(symbol, (str, tuple, list, dict, int, float)):
                continue  # data constants (__version__, LOG_POLICIES, ...)
            if getattr(symbol, "__module__", "") == "typing":
                continue  # type aliases (WaitCallback, ...): documented via #: comments
            doc = inspect.getdoc(symbol)
            if not doc or not doc.strip():
                missing.append(name)
        assert not missing, (
            f"{module.__name__} exports symbols without docstrings: {missing}"
        )

    def test_every_public_module_has_a_docstring(self):
        import pkgutil

        missing = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = __import__(info.name, fromlist=["__doc__"])
            if not (module.__doc__ or "").strip():
                missing.append(info.name)
        assert not missing, f"modules without docstrings: {missing}"

    @pytest.mark.parametrize(
        "cls",
        [
            repro.RetrievalService,
            repro.service.SessionStore,
            repro.service.InMemorySessionStore,
            repro.service.FileSessionStore,
            repro.service.SessionState,
            repro.index.VectorIndex,
            repro.index.ShardedVectorIndex,
            repro.index.KDTreeIndex,
            repro.cluster.ClusterRouter,
            repro.cluster.ClusterWorker,
            repro.utils.StripedLockMap,
            repro.utils.ReadWriteLock,
            repro.logdb.LogStore,
            repro.logdb.InMemoryLogStore,
            repro.logdb.FileLogStore,
            repro.logdb.LogDatabase,
            repro.logdb.LogSnapshot,
            repro.logdb.RelevanceMatrix,
            repro.logdb.LogSession,
            repro.obs.MetricsRegistry,
            repro.obs.Tracer,
            repro.obs.Observability,
            repro.obs.InMemoryExporter,
            repro.obs.JSONLExporter,
            repro.graph.AffinityGraph,
            repro.graph.KNNGraphBuilder,
            repro.graph.GraphCache,
            repro.graph.LabelPropagationFeedback,
        ],
        ids=lambda cls: cls.__name__,
    )
    def test_public_methods_of_api_classes_documented(self, cls):
        """The API-reference pass: every public method needs a docstring."""
        missing = []
        for name, member in inspect.getmembers(cls):
            if name.startswith("_"):
                continue
            if inspect.isfunction(member) or isinstance(
                inspect.getattr_static(cls, name, None), property
            ):
                if not (inspect.getdoc(member) or "").strip():
                    missing.append(name)
        assert not missing, f"{cls.__name__} has undocumented members: {missing}"


class TestDocTree:
    def test_docs_tree_exists(self):
        for page in REQUIRED_DOC_PAGES:
            assert (DOCS_DIR / page).is_file(), f"docs/{page} is missing"

    def test_readme_links_all_doc_pages(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for page in REQUIRED_DOC_PAGES:
            assert f"docs/{page}" in readme, f"README does not link docs/{page}"

    @pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
    def test_internal_links_resolve(self, doc):
        text = doc.read_text(encoding="utf-8")
        broken = []
        for match in _MD_LINK.finditer(text):
            target = match.group(1)
            if "://" in target or target.startswith("mailto:"):
                continue  # external links are out of scope
            if not (doc.parent / target).resolve().exists():
                broken.append(target)
        assert not broken, f"{doc.name} has broken relative links: {broken}"

    @pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
    def test_referenced_code_paths_exist(self, doc):
        text = doc.read_text(encoding="utf-8")
        missing = []
        for token in _PATH_TOKEN.findall(text):
            if not (REPO_ROOT / token).exists():
                missing.append(token)
        assert not missing, f"{doc.name} references missing paths: {missing}"

    def test_doc_symbols_still_exist(self):
        """Backtick identifiers like `repro.service.RetrievalService` (and
        dotted module names) named in the docs must resolve — either as an
        importable module or as an attribute of one."""
        import importlib

        pattern = re.compile(r"`(repro(?:\.[a-z_]+)+)`")
        for doc in DOC_FILES:
            for dotted in set(pattern.findall(doc.read_text(encoding="utf-8"))):
                try:
                    importlib.import_module(dotted)
                except ModuleNotFoundError:
                    parent, _, attr = dotted.rpartition(".")
                    module = importlib.import_module(parent)
                    assert hasattr(module, attr), (
                        f"{doc.name} references {dotted}, which is neither a "
                        f"module nor an attribute of {parent}"
                    )


class TestReadmeQuickstart:
    def _snippets(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        return re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)

    def test_quickstart_snippet_executes(self):
        """The README's first code block (the service quickstart) must run
        exactly as printed."""
        snippets = self._snippets()
        assert snippets, "README has no python quickstart snippet"
        namespace: dict = {}
        exec(compile(snippets[0], "README.md#quickstart", "exec"), namespace)
        # The snippet's own objects prove it ran end to end.
        assert namespace["refined"].round_index == 1
        assert namespace["database"].log_database.num_sessions > 0
