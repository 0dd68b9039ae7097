"""Wire protocol: round-trips, error mapping, metrics, shedding."""

import datetime
import json
import socket

import pytest

from repro import Database, DataType
from repro.errors import (ProtocolError, ResourceExhausted, ServerOverloaded,
                          TransactionError)
from repro.server import QueryServer, ServerClient


@pytest.fixture
def db():
    database = Database()
    database.create_table("t", [("a", DataType.INTEGER, False),
                                ("b", DataType.VARCHAR),
                                ("d", DataType.DATE)],
                          primary_key=("a",))
    database.insert("t", [
        (1, "one", datetime.date(2020, 1, 1)),
        (2, "two", datetime.date(2021, 2, 2)),
        (3, None, None)])
    return database


@pytest.fixture
def server(db):
    with QueryServer(db, max_workers=2) as srv:
        yield srv


@pytest.fixture
def client(server):
    host, port = server.address
    with ServerClient(host, port) as cli:
        yield cli


class TestRoundTrips:
    def test_query_with_schema(self, client):
        result = client.query("select a, b from t where a <= 2 order by a")
        assert result.rows == [(1, "one"), (2, "two")]
        assert result.names == ["a", "b"]
        assert [t.value for t in result.types] == ["integer", "varchar"]

    def test_dates_round_trip_bit_identical(self, client):
        result = client.query("select a, d from t order by a")
        assert result.rows == [(1, datetime.date(2020, 1, 1)),
                               (2, datetime.date(2021, 2, 2)),
                               (3, None)]

    def test_positional_and_named_params(self, client):
        assert client.query("select b from t where a = ?",
                            [2]).scalar() == "two"
        assert client.query("select b from t where a = :x",
                            {"x": 1}).scalar() == "one"

    def test_date_params_encoded(self, client):
        result = client.query("select a from t where d = ?",
                              [datetime.date(2020, 1, 1)])
        assert result.rows == [(1,)]

    def test_engines_and_modes(self, client):
        sql = "select count(*) from t"
        assert client.query(sql, engine="vectorized").scalar() == 3
        assert client.query(sql, mode="naive").scalar() == 3

    def test_explain(self, client):
        plan = client.explain("select a from t where a = 1")
        assert "t" in plan

    def test_insert_and_transaction(self, client, db):
        client.begin()
        client.insert("t", [[10, "ten", datetime.date(2022, 3, 3)]])
        # Staged write: invisible outside the wire session until commit.
        assert db.execute("select count(*) from t").scalar() == 3
        client.commit()
        assert db.execute("select count(*) from t").scalar() == 4

    def test_rollback(self, client, db):
        client.begin()
        client.insert("t", [{"a": 11, "b": None, "d": None}])
        client.rollback()
        assert db.execute("select count(*) from t").scalar() == 3

    def test_ddl_over_wire(self, client, db):
        client.create_table("w", [["k", "integer", False],
                                  ["v", "varchar"]], primary_key=["k"])
        client.insert("w", [[1, "x"]])
        client.create_index("ix_w_v", "w", ["v"])
        assert client.query("select v from w").scalar() == "x"
        client.drop_table("w")
        assert not db.catalog.has_table("w")

    def test_two_clients_are_independent_sessions(self, server, db):
        host, port = server.address
        with ServerClient(host, port) as one, \
                ServerClient(host, port) as two:
            one.begin()
            one.insert("t", [[20, None, None]])
            assert one.query("select count(*) from t").scalar() == 4
            assert two.query("select count(*) from t").scalar() == 3
            one.commit()
            assert two.query("select count(*) from t").scalar() == 4


class TestErrors:
    def test_sql_error_fails_request_not_connection(self, client):
        with pytest.raises(Exception) as excinfo:
            client.query("select nope from t")
        assert "nope" in str(excinfo.value)
        assert client.ping()

    def test_unknown_op_is_protocol_error(self, client):
        with pytest.raises(ProtocolError):
            client.request({"op": "teleport"})
        assert client.ping()

    def test_transaction_errors_map_back(self, client):
        client.begin()
        with pytest.raises(TransactionError):
            client.request({"op": "begin"})
        client.rollback()

    def test_garbage_line_fails_that_request_only(self, server):
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=10)
        try:
            sock.sendall(b"this is not json\n")
            reader = sock.makefile("rb")
            response = json.loads(reader.readline())
            assert response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            sock.sendall(json.dumps({"op": "ping"}).encode() + b"\n")
            assert json.loads(reader.readline())["ok"] is True
        finally:
            sock.close()

    def test_overload_shedding_over_wire(self, db):
        # One worker, a queue of one: concurrent clients beyond that are
        # rejected with ServerOverloaded, carrying the retry detail.
        import threading

        with QueryServer(db, max_workers=1, max_queue_depth=1) as srv:
            host, port = srv.address
            gate_sql = ("select count(*) from t t1, t t2, t t3, t t4, "
                        "t t5, t t6, t t7")
            results: list[str] = []

            def hammer() -> None:
                try:
                    with ServerClient(host, port, timeout=60) as cli:
                        cli.query(gate_sql)
                    results.append("ok")
                except ServerOverloaded:
                    results.append("shed")
                except Exception as exc:  # pragma: no cover
                    results.append(f"unexpected: {exc!r}")

            threads = [threading.Thread(target=hammer) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert len(results) == 6
            assert not [r for r in results if r.startswith("unexpected")]
            if "shed" in results:
                assert srv.metrics()["shed"] >= 1
            # Shedding must reject, not deadlock: everyone got an answer.
            assert set(results) <= {"ok", "shed"}


def _error_samples():
    """One instance of every ReproError subclass in repro.errors, built
    with structured attributes where the class has them."""
    from repro import errors
    from repro.analysis.issues import AnalysisIssue

    built = {
        errors.SqlSyntaxError: errors.SqlSyntaxError("unexpected ')'", 3, 14),
        errors.PlanInvariantError: errors.PlanInvariantError(
            "plan failed static analysis",
            [AnalysisIssue("columns.unresolved", "stray#7 is not produced",
                           "Select(stray#7 = 1)", (0, 1))],
            blame="test_rule turned valid tree into an invalid one"),
        errors.QueryTimeout: errors.QueryTimeout(1.5, 2.25),
        errors.ResourceExhausted: errors.ResourceExhausted("row", 10, 11),
        errors.OptimizerBudgetExceeded: errors.OptimizerBudgetExceeded(
            "rule-application", 200_000),
        errors.InjectedFault: errors.InjectedFault("wal.append", torn=True),
        errors.ServerOverloaded: errors.ServerOverloaded("queue full", 4, 5),
        errors.SubqueryReturnedMultipleRows:
            errors.SubqueryReturnedMultipleRows(),
    }
    classes = [value for value in vars(errors).values()
               if isinstance(value, type)
               and issubclass(value, errors.ReproError)]
    return [built.get(cls) or cls(f"{cls.__name__} raised by the server")
            for cls in classes]


class TestErrorRoundTrip:
    @pytest.mark.parametrize("error", _error_samples(),
                             ids=lambda error: type(error).__name__)
    def test_type_message_and_attributes_survive_the_wire(
            self, server, client, monkeypatch, error):
        def fail(session, request):
            raise error

        monkeypatch.setattr(server, "_dispatch", fail)
        with pytest.raises(type(error)) as excinfo:
            client.request({"op": "ping"})
        rebuilt = excinfo.value
        assert type(rebuilt) is type(error)
        assert rebuilt.args == error.args
        assert vars(rebuilt) == vars(error)


class TestAnalyzedExplainIsAQuery:
    """``explain`` with ``analyze: true`` executes the query, so it goes
    through the same admission queue and resource lease as ``query``."""

    def test_leased_row_budget_governs_the_profiled_run(self, db):
        sql = "select a from t"
        with QueryServer(db, max_workers=1, query_row_budget=2) as srv:
            with ServerClient(*srv.address) as cli:
                with pytest.raises(ResourceExhausted) as query_error:
                    cli.query(sql)
                with pytest.raises(ResourceExhausted) as explain_error:
                    cli.explain(sql, analyze=True)
                for error in (query_error.value, explain_error.value):
                    assert (error.resource, error.limit) == ("row", 2)
                    assert error.used > 2
                # A plain explain runs nothing and takes no lease.
                assert "TableScan" in cli.explain(sql)

    def test_admitted_and_lease_returned(self, db):
        with QueryServer(db, max_workers=1, pool_row_budget=100) as srv:
            with ServerClient(*srv.address) as cli:
                examined = cli.query("select a from t").stats.rows_examined
                before = srv.metrics()["admission"]["completed"]
                cli.explain("select a from t")
                assert srv.metrics()["admission"]["completed"] == before
                payload = cli.explain("select a from t", analyze=True,
                                      format="dict")
                assert payload["stats"]["row_budget"] == 100
                assert payload["stats"]["rows_examined"] == examined > 0
                assert srv.metrics()["admission"]["completed"] == before + 1
            assert srv.pool.available()["row_budget"] == 100


class TestMetrics:
    def test_metrics_shape(self, client, server):
        client.query("select count(*) from t")
        metrics = client.metrics()
        assert metrics["open_sessions"] >= 1
        assert metrics["admission"]["completed"] >= 1
        assert 0.0 <= metrics["plan_cache_hit_rate"] <= 1.0
        assert "data_version" in metrics
        assert set(server.metrics()) == set(metrics)  # same shape locally

    def test_session_closed_when_connection_drops(self, server, db):
        host, port = server.address
        before = db.open_session_count
        cli = ServerClient(host, port)
        cli.ping()
        assert db.open_session_count == before + 1
        cli.close()
        deadline = 50
        import time
        for _ in range(deadline):
            if db.open_session_count == before:
                break
            time.sleep(0.05)
        assert db.open_session_count == before
