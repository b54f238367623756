"""Shared fixtures: generated datasets, a throwaway server, hypothesis profile."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from treeduce import treefile
from treeduce.bench.generate import GenSpec, generate
from treeduce.engine import memory
from treeduce.xrdlite import ServerConfig, serve

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.filter_too_much,
        # property tests overwrite one scratch file per example on purpose
        HealthCheck.function_scoped_fixture,
    ],
)
settings.load_profile("suite")

# one verdict line per acceptance criterion, echoed after the test summary
# so they survive output capture; blocks carry multi-line detail
ACCEPTANCE_LINES: list[str] = []
ACCEPTANCE_BLOCKS: list[str] = []


def pytest_report_header(config):
    name = "libdeflate.so.0" if treefile._LIBDEFLATE is not None else "the zlib fallback"
    policy = "applied" if memory.keep_task_memory() else "not applied (no glibc mallopt)"
    return f"treefile inflates with {name}; engine allocator policy {policy}"


@pytest.fixture(params=["libdeflate", "zlib"])
def inflater(request, monkeypatch):
    """Run a test once per inflater; the zlib case forces the fallback."""
    if request.param == "zlib":
        monkeypatch.setattr(treefile, "_LIBDEFLATE", None)
    elif treefile._LIBDEFLATE is None:
        pytest.skip("libdeflate.so.0 did not load")
    return request.param


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q hides the report header; this line shows in every log
    terminalreporter.write_line(pytest_report_header(config))
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
    for block in ACCEPTANCE_BLOCKS:
        terminalreporter.write_line("")
        for line in block.splitlines():
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def demo_dataset(tmp_path_factory):
    """Two small demo files with several baskets per branch."""
    out = tmp_path_factory.mktemp("demo-data")
    spec = GenSpec(seed=7, n_events=6144, n_files=2, basket_target_entries=1024)
    manifest = generate(spec, out)
    return out, spec, manifest


@pytest.fixture(scope="session")
def flat8_dataset(tmp_path_factory):
    """Uncompressed flat files, geometry fully predictable."""
    out = tmp_path_factory.mktemp("flat8-data")
    spec = GenSpec(seed=11, n_events=4096, n_files=2, schema="flat8", basket_target_entries=512)
    manifest = generate(spec, out)
    return out, spec, manifest


@pytest.fixture
def serve_dir():
    """Start throwaway servers on ephemeral ports; stopped on teardown."""
    started = []

    def _start(root, bandwidth_cap=None):
        server = serve(ServerConfig(root_dir=str(root), port=0, bandwidth_cap=bandwidth_cap))
        started.append(server)
        return server

    yield _start
    for server in started:
        server.stop()
