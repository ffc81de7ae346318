"""Documentation gates: docstrings, link rot, and an executable quickstart.

Three checks keep the docs honest in CI:

* every public symbol exported from :mod:`repro` (and from
  ``repro.service`` / ``repro.index`` / ``repro.cluster`` /
  ``repro.utils``, the documented subsystem surfaces) carries a
  docstring — and so does every public method of the
  service/index/cluster API classes;
* every relative link and every referenced repository path inside
  ``docs/*.md`` and ``README.md`` resolves to a real file, and so does
  every path a docstring or comment under ``src/repro`` or ``examples``
  cites;
* the README quickstart snippet actually executes;
* every keyword argument the examples pass to a serving constructor is a
  parameter of that constructor (tier-1 never runs ``examples/``).
"""

from __future__ import annotations

import ast
import importlib
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

#: Python files whose docstrings and comments are gated like the docs.
CODE_FILES = sorted((REPO_ROOT / "src" / "repro").rglob("*.py")) + sorted(
    (REPO_ROOT / "examples").glob("*.py")
)

#: Inline-code tokens that look like repository paths, e.g.
#: ``examples/parallel_service.py``, ``docs/service.md`` or a root-level
#: ``BENCHMARK.json``.
_PATH_TOKEN = re.compile(r"`([A-Za-z0-9_.-]+(?:/[A-Za-z0-9_.-]+)*\.(?:py|md|json))`")

#: Serving constructors whose keyword arguments the examples must match.
EXAMPLE_CALLABLES = {
    "RetrievalService": repro.service.RetrievalService,
    "ClusterConfig": repro.cluster.ClusterConfig,
    "ClusterRouter": repro.cluster.ClusterRouter,
    "FileSessionStore": repro.service.FileSessionStore,
    "InMemorySessionStore": repro.service.InMemorySessionStore,
    "SearchRequest": repro.service.SearchRequest,
    "FeedbackRequest": repro.service.FeedbackRequest,
}

#: Bare names of files a store writes at run time, not repository files.
_RUNTIME_FILE_NAMES = {"manifest.json"}

#: Markdown links: ``[text](target)``.
_MD_LINK = re.compile(r"\[[^\]]+\]\(([^)#\s]+)(?:#[^)\s]*)?\)")


#: Backtick citations of a dotted ``repro`` symbol, optionally written as a
#: call without arguments: ``repro.logdb.LogStore``, ``repro.obs.get_hub()``.
_DOC_SYMBOL = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)(?:\(\))?`")


def _resolves(dotted):
    """Whether *dotted* names a module, or an attribute chain off one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def _missing_paths(path):
    tokens = set(_PATH_TOKEN.findall(path.read_text(encoding="utf-8")))
    return sorted(
        token
        for token in tokens - _RUNTIME_FILE_NAMES
        if not (REPO_ROOT / token).exists()
    )


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
            repro.cluster.ClusterRouter,
            repro.cluster.ClusterWorker,
            repro.utils.StripedLockMap,
            repro.logdb.LogStore,
            repro.logdb.InMemoryLogStore,
            repro.logdb.FileLogStore,
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
        missing = _missing_paths(doc)
        assert not missing, f"{doc.name} references missing paths: {missing}"

    def test_paths_cited_in_code_exist(self):
        missing = {
            str(path.relative_to(REPO_ROOT)): paths
            for path in CODE_FILES
            if (paths := _missing_paths(path))
        }
        assert not missing, f"code cites missing paths: {missing}"

    @pytest.mark.parametrize(
        "token, cited",
        [("BENCH_index.json", True), ("docs/graph.md", True), ("benchmarks/conftest.py", True),
         ("repro.utils.io", False), ("README", False)],
    )
    def test_path_token_spots_nested_and_root_level_files(self, token, cited):
        assert _PATH_TOKEN.findall(f"see `{token}` here") == ([token] if cited else [])

    def test_doc_symbols_still_exist(self):
        """Backtick identifiers like `repro.service.RetrievalService` (and
        dotted module names, attributes of classes, or calls written as
        `repro.logdb.LogStore.snapshot()`) named in the docs must resolve:
        the longest importable prefix, then an attribute chain."""
        unresolved = [
            f"{doc.name}: {dotted}"
            for doc in DOC_FILES
            for dotted in sorted(set(_DOC_SYMBOL.findall(doc.read_text(encoding="utf-8"))))
            if not _resolves(dotted)
        ]
        assert not unresolved, f"docs cite symbols that do not exist: {unresolved}"

    @pytest.mark.parametrize(
        "text, cited",
        [("`repro.service.RetrievalService`", "repro.service.RetrievalService"),
         ("`repro.logdb.LogStore.snapshot()`", "repro.logdb.LogStore.snapshot"),
         ("`repro.cluster.messages.MAX_WAVE`", "repro.cluster.messages.MAX_WAVE"),
         ("`repro.utils.io`", "repro.utils.io"),
         ("`repro.logdb.LogStore.scan(0)`", None)],
    )
    def test_doc_symbol_pattern_sees_classes_and_calls(self, text, cited):
        assert _DOC_SYMBOL.findall(text) == ([cited] if cited else [])

    @pytest.mark.parametrize(
        "dotted, exists",
        [("repro.logdb.LogStore.snapshot", True), ("repro.utils.io", True),
         ("repro.logdb.LogStore.no_such_method", False), ("repro.no_such_module", False)],
    )
    def test_doc_symbol_resolution(self, dotted, exists):
        assert _resolves(dotted) is exists


class TestExamples:
    def test_example_keywords_are_constructor_parameters(self):
        """A keyword an example passes to a serving constructor must still
        exist, or the example breaks with nothing in tier-1 to notice."""
        checked, unknown = 0, []
        for path in sorted((REPO_ROOT / "examples").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name not in EXAMPLE_CALLABLES:
                    continue
                parameters = inspect.signature(EXAMPLE_CALLABLES[name]).parameters
                for keyword in node.keywords:
                    if keyword.arg is None:
                        continue  # ``**kwargs`` cannot be checked statically
                    checked += 1
                    if keyword.arg not in parameters:
                        unknown.append(f"{path.name}:{node.lineno} {name}({keyword.arg}=)")
        assert checked, "no serving constructor call with keywords found in examples/"
        assert not unknown, f"examples pass unknown keywords: {unknown}"


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
        assert len(namespace["database"].log_database) > 0
