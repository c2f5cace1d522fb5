"""Shared fixtures for the test suite."""

import json
import threading

import pytest

from repro.catalog import Catalog
from repro.service import make_server
from repro.solver import Solver
from repro.workloads import beers, dblp, tpch


@pytest.fixture()
def start_server():
    """``start(**kwargs)`` serves ``make_server(port=0, **kwargs)`` on a
    thread and returns ``(server, base_url)``.

    At teardown every started server is shut down and closed, and its
    serving thread must have exited.
    """
    started = []

    def start(**kwargs):
        server = make_server(port=0, **kwargs)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append((server, thread))
        host, port = server.server_address[:2]
        return server, f"http://{host}:{port}"

    yield start
    for server, thread in started:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive(), "serve_forever did not exit"


@pytest.fixture()
def serve_argv(tmp_path):
    """``repro serve`` arguments that preload assignment ``default``
    (target ``SELECT beer FROM Serves WHERE price > 2``) with the cache
    file ``tmp_path/cache.json``."""
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(
        {"Serves": [["bar", "STRING"], ["beer", "STRING"], ["price", "FLOAT"]]}
    ))
    return [
        "serve", "--schema", str(schema),
        "--target-sql", "SELECT beer FROM Serves WHERE price > 2",
        "--cache-file", str(tmp_path / "cache.json"),
    ]


@pytest.fixture(scope="session")
def solver():
    """A session-wide solver; caches accumulate across tests."""
    return Solver()


@pytest.fixture(scope="session")
def beers_catalog():
    return beers.catalog()


@pytest.fixture(scope="session")
def tpch_catalog():
    return tpch.catalog()


@pytest.fixture(scope="session")
def dblp_catalog():
    return dblp.catalog()


@pytest.fixture()
def rs_catalog():
    """The R(A,B) / S(C,D) integer schema used by paper Examples 6.1/10."""
    return Catalog.from_spec(
        {
            "R": [("a", "INT"), ("b", "INT")],
            "S": [("c", "INT"), ("d", "INT")],
        }
    )
