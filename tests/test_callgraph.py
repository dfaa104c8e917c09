"""Call graph and summaries (reprolint interprocedural).

Covers the resolver's contract: module-qualified resolution, ``self``
dispatch over the class hierarchy, typed-attribute chains, and bounded
recursion in the transitive summaries.
"""

from __future__ import annotations

import textwrap

from repro.analysis import build_context
from repro.analysis.callgraph import ProgramContext
from repro.analysis.summaries import find_lock_cycles


def program_for(*items):
    """Build a ProgramContext from (path, source) pairs."""
    contexts = [
        build_context(textwrap.dedent(source), path)
        for path, source in items
    ]
    return ProgramContext(contexts)


def edges_of(program, caller):
    return sorted(
        edge.callee for edge, __ in program.calls_from.get(caller, ())
    )


class TestCallResolution:
    def test_module_level_call(self):
        program = program_for(
            (
                "src/repro/core/a.py",
                """
                def helper():
                    pass

                def entry():
                    helper()
                """,
            )
        )
        assert edges_of(program, "repro.core.a.entry") == ["repro.core.a.helper"]

    def test_imported_function_call(self):
        program = program_for(
            (
                "src/repro/core/a.py",
                """
                def shared():
                    pass
                """,
            ),
            (
                "src/repro/core/b.py",
                """
                from repro.core.a import shared

                def entry():
                    shared()
                """,
            ),
        )
        assert edges_of(program, "repro.core.b.entry") == ["repro.core.a.shared"]

    def test_self_method_dispatch(self):
        program = program_for(
            (
                "src/repro/core/a.py",
                """
                class Engine:
                    def flush(self):
                        pass

                    def sync(self):
                        self.flush()
                """,
            )
        )
        assert edges_of(program, "repro.core.a.Engine.sync") == [
            "repro.core.a.Engine.flush"
        ]

    def test_inherited_method_resolves_through_base(self):
        program = program_for(
            (
                "src/repro/core/a.py",
                """
                class Base:
                    def ping(self):
                        pass

                class Derived(Base):
                    def go(self):
                        self.ping()
                """,
            )
        )
        assert edges_of(program, "repro.core.a.Derived.go") == [
            "repro.core.a.Base.ping"
        ]

    def test_typed_attribute_chain(self):
        program = program_for(
            (
                "src/repro/core/a.py",
                """
                class Master:
                    def unlink(self, path):
                        pass

                class Client:
                    def __init__(self, master: Master):
                        self.master = master

                    def remove(self, path):
                        self.master.unlink(path)
                """,
            )
        )
        assert edges_of(program, "repro.core.a.Client.remove") == [
            "repro.core.a.Master.unlink"
        ]

    def test_container_element_dispatch(self):
        program = program_for(
            (
                "src/repro/core/a.py",
                """
                class Server:
                    def write(self, data):
                        pass

                class Client:
                    def __init__(self, servers: dict[str, Server]):
                        self.servers = servers

                    def push(self, name, data):
                        self.servers[name].write(data)

                    def broadcast(self, data):
                        for server in self.servers.values():
                            server.write(data)
                """,
            )
        )
        assert edges_of(program, "repro.core.a.Client.push") == [
            "repro.core.a.Server.write"
        ]
        assert edges_of(program, "repro.core.a.Client.broadcast") == [
            "repro.core.a.Server.write"
        ]

    def test_unresolvable_call_carries_no_edge(self):
        program = program_for(
            (
                "src/repro/core/a.py",
                """
                def entry(thing):
                    thing.mystery()
                """,
            )
        )
        assert edges_of(program, "repro.core.a.entry") == []

    def test_constructor_call_edges_to_init(self):
        program = program_for(
            (
                "src/repro/core/a.py",
                """
                class Widget:
                    def __init__(self):
                        pass

                def make():
                    return Widget()
                """,
            )
        )
        assert edges_of(program, "repro.core.a.make") == [
            "repro.core.a.Widget.__init__"
        ]


class TestSummaries:
    def test_transitive_locks_compose_across_calls(self):
        program = program_for(
            (
                "src/repro/distributed/a.py",
                """
                class Master:
                    def __init__(self):
                        self.lock = object()

                    def mutate(self):
                        with self.lock:
                            pass

                class Client:
                    def __init__(self, master: Master):
                        self.master = master

                    def outer(self):
                        self.step()

                    def step(self):
                        self.master.mutate()
                """,
            )
        )
        locks = program.summaries.transitive_locks(
            "repro.distributed.a.Client.outer"
        )
        assert "repro.distributed.a.Master.lock" in locks
        chain = locks["repro.distributed.a.Master.lock"]
        assert chain == (
            "repro.distributed.a.Client.outer",
            "repro.distributed.a.Client.step",
            "repro.distributed.a.Master.mutate",
        )

    def test_recursion_is_bounded_not_infinite(self):
        program = program_for(
            (
                "src/repro/core/a.py",
                """
                class Node:
                    def __init__(self):
                        self.node_lock = object()

                    def ping(self):
                        self.pong()

                    def pong(self):
                        with self.node_lock:
                            self.ping()
                """,
            )
        )
        locks = program.summaries.transitive_locks("repro.core.a.Node.ping")
        assert "repro.core.a.Node.node_lock" in locks

    def test_counted_return_propagates_through_wrappers(self):
        program = program_for(
            (
                "src/repro/core/a.py",
                """
                def take(refcount, block_no):
                    refcount.incref(block_no)
                    return block_no

                def wrap(refcount, block_no):
                    return take(refcount, block_no)
                """,
            )
        )
        summaries = program.summaries
        assert summaries.counted_return("repro.core.a.take")
        assert summaries.counted_return("repro.core.a.wrap")
        assert not summaries.counted_return("repro.core.a.missing")

    def test_lock_order_edges_and_cycles(self):
        program = program_for(
            (
                "src/repro/distributed/a.py",
                """
                class Pair:
                    def __init__(self):
                        self.a_lock = object()
                        self.b_lock = object()

                    def ab(self):
                        with self.a_lock:
                            with self.b_lock:
                                pass

                    def ba(self):
                        with self.b_lock:
                            with self.a_lock:
                                pass
                """,
            )
        )
        edges = program.summaries.lock_order_edges()
        pairs = {(edge.outer, edge.inner) for edge in edges}
        assert (
            "repro.distributed.a.Pair.a_lock",
            "repro.distributed.a.Pair.b_lock",
        ) in pairs
        cycles = find_lock_cycles(edges)
        assert cycles, "the a->b / b->a pair must form a cycle"
