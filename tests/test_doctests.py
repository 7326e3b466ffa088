"""Execute the public surface's doctest examples.

The docstring examples on the public API (``Deployment.run_queries_fast``,
the scenario spec vocabulary, the ``repro`` CLI parser, the circular-id
helpers) are contracts: if the code drifts, the docs must fail, not rot.
This module runs them as part of tier-1, so every example in the
documentation (and in ``docs/``, which links to these docstrings) stays
executable.
"""

import doctest
from pathlib import Path

import pytest

pytest.importorskip("numpy")  # run_queries_fast examples need the fast path

import repro.admission.base
import repro.cli
import repro.cluster.deployment
import repro.core.ids
import repro.obs.events
import repro.obs.manifest
import repro.obs.profiler
import repro.scenarios.matrix
import repro.scenarios.spec
import repro.telemetry.archive
import repro.traces.registry
import repro.traces.spec

#: every module whose docstring examples are part of the documented
#: contract; add modules here when giving them doctest examples.
DOCTEST_MODULES = (
    repro.admission.base,
    repro.cli,
    repro.cluster.deployment,
    repro.core.ids,
    repro.obs.events,
    repro.obs.manifest,
    repro.obs.profiler,
    repro.scenarios.matrix,
    repro.scenarios.spec,
    repro.telemetry.archive,
    repro.traces.registry,
    repro.traces.spec,
)

#: docs-site pages whose ``>>>`` examples are executable contracts too;
#: the docs CI job and tier-1 both run them.
DOCTEST_PAGES = (
    "scenarios.md",
    "traces.md",
    "observability.md",
    "admission.md",
)


@pytest.mark.parametrize(
    "module", DOCTEST_MODULES, ids=lambda m: m.__name__
)
def test_module_doctests(module):
    result = doctest.testmod(
        module, optionflags=doctest.ELLIPSIS, verbose=False
    )
    assert result.attempted > 0, f"{module.__name__} lost its doctest examples"
    assert result.failed == 0


@pytest.mark.parametrize("page", DOCTEST_PAGES)
def test_docs_page_doctests(page):
    path = Path(__file__).resolve().parents[1] / "docs" / page
    result = doctest.testfile(
        str(path), module_relative=False,
        optionflags=doctest.ELLIPSIS, verbose=False,
    )
    assert result.attempted > 0, f"docs/{page} lost its doctest examples"
    assert result.failed == 0
