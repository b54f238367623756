"""Shared fixtures: generated datasets, a throwaway server, hypothesis profile."""

from __future__ import annotations

import contextlib
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import treeduce
from treeduce import treefile
from treeduce.bench.generate import DEMO_TREE, GenSpec, generate
from treeduce.engine import Manifest, memory
from treeduce.xrdlite import ServerConfig, XrdServer, serve

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
    policy = "applied" if memory.keep_task_memory() else "not applied (no glibc mallopt)"
    library = "libdeflate.so.0" if treefile._LIBDEFLATE is not None else "the zlib fallback"
    return f"treefile inflates, deflates and checksums with {library}; engine allocator policy {policy}"


@pytest.fixture(params=["libdeflate", "zlib"])
def library(request, monkeypatch):
    """Run a test once per library of treefile's inflate, deflate and CRC-32;
    the zlib case forces the fallback."""
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


def read_parts(manifest: Manifest, tree: str = DEMO_TREE) -> dict[str, treefile.ColumnChunk]:
    """Every branch of a reduce job's part files, concatenated in manifest order.

    Checks each part's entry count against its manifest record.
    """
    per_branch: dict[str, list[treefile.ColumnChunk]] = {}
    for entry in manifest.entries:
        with treefile.open_file(entry.path) as reader:
            assert reader.tree(tree).n_entries == entry.entries
            for name in reader.tree(tree).branches:
                per_branch.setdefault(name, []).append(reader.read_column(tree, name))
    return {name: treefile.ColumnChunk.concatenate(chunks) for name, chunks in per_branch.items()}


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


@contextlib.contextmanager
def serve_process(root):
    """A ``treeduce serve`` child process over ``root``; yields (process, (host, port)).

    The process is killed on exit if it is still running.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(treeduce.__file__).parents[1]), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "treeduce.cli", "serve", "--root", str(root), "--port", "0"],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        first = proc.stdout.readline()
        match = re.fullmatch(rf"serving {re.escape(str(root))} on ([\d.]+):(\d+)\n", first)
        assert match, first
        yield proc, (match.group(1), int(match.group(2)))
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()


def open_connections(server: XrdServer, timeout_s: float = 2.0) -> int:
    """The server's open client connections, once none is left or ``timeout_s`` has passed.

    A server counts a connection closed when its handler sees the client
    hang up, a moment after the client closed it.
    """
    deadline = time.monotonic() + timeout_s
    while (n := server.counters().connections_open) and time.monotonic() < deadline:
        time.sleep(0.005)
    return n


@pytest.fixture
def serve_dir():
    """Start throwaway servers on ephemeral ports; stopped on teardown.

    Teardown fails the test if a client left a connection to one of them open.
    """
    started = []

    def _start(root, bandwidth_cap=None):
        server = serve(ServerConfig(root_dir=str(root), port=0, bandwidth_cap=bandwidth_cap))
        started.append(server)
        return server

    yield _start
    try:
        leaked = {server.address: open_connections(server) for server in started}
        assert not any(leaked.values()), f"client connections left open: {leaked}"
    finally:
        for server in started:
            server.stop()
