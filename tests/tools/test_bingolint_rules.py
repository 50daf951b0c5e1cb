"""Per-rule fixture tests: every rule fires on its true positive and
stays quiet on its false positive.

Fixtures are inline source strings (not files on disk) so the repo's
own lint runs never trip over deliberately-bad example code.  Each rule
gets at least one TP (the postmortem pattern, reduced) and one FP (the
sanctioned pattern the rule must not over-fire on).
"""

import textwrap

import pytest

from bingolint.registry import all_rules, get_rule
from bingolint.runner import check_source


def lint(rule_id: str, source: str, path: str):
    rule = get_rule(rule_id)()
    return check_source(rule, textwrap.dedent(source), path)


SERVE_PATH = "src/repro/serve/example.py"


class TestRegistry:
    def test_all_ten_rules_registered(self):
        assert list(all_rules()) == [f"BGL{number:03d}" for number in range(1, 11)]

    def test_every_rule_has_name_and_rationale(self):
        for rule_id, cls in all_rules().items():
            assert cls.name, rule_id
            assert cls.rationale, rule_id

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            get_rule("BGL999")


class TestBGL001LockGuardedWrites:
    TP = """
        import threading

        class Service:
            def __init__(self):
                self._lock = threading.Lock()
                self.counter = 0

            def guarded(self):
                with self._lock:
                    self.counter += 1

            def racy(self):
                self.counter = 0
    """

    def test_true_positive_unlocked_write(self):
        findings = lint("BGL001", self.TP, SERVE_PATH)
        assert [f.line for f in findings] == [14]
        assert "self.counter" in findings[0].message

    def test_false_positive_all_writes_locked(self):
        source = """
            import threading

            class Service:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.counter = 0

                def guarded(self):
                    with self._lock:
                        self.counter += 1

                def also_guarded(self):
                    with self._lock:
                        self.counter = 0
        """
        assert lint("BGL001", source, SERVE_PATH) == []

    def test_false_positive_init_writes_are_construction(self):
        # __init__ runs before the object is shared; no finding for the
        # unlocked initialisation of a guarded attribute.
        source = """
            import threading

            class Service:
                def __init__(self):
                    self._cond = threading.Condition()
                    self.epoch = 0

                def publish(self):
                    with self._cond:
                        self.epoch += 1
        """
        assert lint("BGL001", source, SERVE_PATH) == []

    def test_false_positive_unguarded_attribute_is_free(self):
        # An attribute never written under the lock has no inferred
        # lockset; writes to it are not findings.
        source = """
            import threading

            class Service:
                def __init__(self):
                    self._lock = threading.Lock()

                def guarded(self):
                    with self._lock:
                        self.shared = 1

                def free(self):
                    self.unrelated = 2
        """
        assert lint("BGL001", source, SERVE_PATH) == []

    def test_condition_counts_as_lock(self):
        source = """
            import threading

            class Service:
                def __init__(self):
                    self._cond = threading.Condition()

                def guarded(self):
                    with self._cond:
                        self.stats = 1

                def racy(self):
                    self.stats = 2
        """
        assert len(lint("BGL001", source, SERVE_PATH)) == 1

    def test_dotted_attribute_paths_tracked_separately(self):
        source = """
            import threading

            class Service:
                def __init__(self):
                    self._lock = threading.Lock()

                def guarded(self):
                    with self._lock:
                        self.stats.served = 1

                def other_field(self):
                    self.stats.failed = 1
        """
        # stats.served is guarded; stats.failed was never locked -> free.
        assert lint("BGL001", source, SERVE_PATH) == []

    def test_out_of_scope_path_not_checked(self):
        assert lint("BGL001", self.TP, "src/repro/walks/frontier.py") == []


class TestBGL002EventLoopBlocking:
    PATH = "src/repro/serve/eventloop.py"

    def test_true_positive_sleep_and_untimed_result(self):
        source = """
            import time

            def handle(ticket):
                time.sleep(0.1)
                return ticket.result()
        """
        findings = lint("BGL002", source, self.PATH)
        assert len(findings) == 2
        assert "time.sleep" in findings[0].message
        assert "result" in findings[1].message

    def test_true_positive_untimed_queue_get_and_wait(self):
        source = """
            def drain(queue, event):
                item = queue.get()
                event.wait()
                return item
        """
        assert len(lint("BGL002", source, self.PATH)) == 2

    def test_false_positive_timeouts_everywhere(self):
        source = """
            def drain(selector, queue, ticket, done):
                selector.select(0.5)
                queue.get(timeout=1.0)
                ticket.result(timeout=2.0)
                done.wait(timeout=10.0)
        """
        assert lint("BGL002", source, self.PATH) == []

    def test_false_positive_nonblocking_socket_ops(self):
        # recv with a size arg (non-blocking socket read), dict-style
        # .get(key), and str.join are all loop-safe.
        source = """
            def read(conn, headers, parts):
                data = conn.sock.recv(65536)
                value = headers.get("content-length")
                return "".join(parts), data, value
        """
        assert lint("BGL002", source, self.PATH) == []

    def test_out_of_scope_file_may_block(self):
        source = """
            import time

            def worker():
                time.sleep(1.0)
        """
        assert lint("BGL002", source, "src/repro/serve/service.py") == []


class TestBGL003BroadExcept:
    def test_true_positive_swallowing_baseexception(self):
        source = """
            def writer(batch):
                try:
                    apply(batch)
                except BaseException as exc:
                    log(exc)
        """
        findings = lint("BGL003", source, "src/repro/serve/service.py")
        assert len(findings) == 1
        assert "BaseException" in findings[0].message

    def test_true_positive_bare_except(self):
        source = """
            def writer(batch):
                try:
                    apply(batch)
                except:
                    pass
        """
        findings = lint("BGL003", source, "tests/test_example.py")
        assert len(findings) == 1
        assert "bare" in findings[0].message

    def test_false_positive_bare_raise_reraises(self):
        source = """
            def writer(batch):
                try:
                    apply(batch)
                except BaseException:
                    cleanup()
                    raise
        """
        assert lint("BGL003", source, "src/repro/serve/service.py") == []

    def test_false_positive_preceding_signal_arm(self):
        # The PR 7 fix pattern: an explicit KeyboardInterrupt/SystemExit
        # arm re-raises before the broad handler.
        source = """
            def writer(batch):
                try:
                    apply(batch)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:
                    quarantine(exc)
        """
        assert lint("BGL003", source, "src/repro/serve/service.py") == []

    def test_false_positive_except_exception_is_fine(self):
        source = """
            def handler(request):
                try:
                    respond(request)
                except Exception as exc:
                    log(exc)
        """
        assert lint("BGL003", source, "src/repro/serve/eventloop.py") == []

    def test_conditional_reraise_counts(self):
        source = """
            def wave(tickets):
                try:
                    run(tickets)
                except BaseException as exc:
                    fail_all(tickets, exc)
                    if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                        raise
        """
        assert lint("BGL003", source, "src/repro/serve/service.py") == []


class TestBGL004SharedMemoryLifetime:
    def test_true_positive_no_finally(self):
        source = """
            from multiprocessing import shared_memory

            def export(data):
                block = shared_memory.SharedMemory(create=True, size=len(data))
                block.buf[:len(data)] = data
                publish(block.name)
                block.close()
                block.unlink()
        """
        findings = lint("BGL004", source, "src/repro/serve/router.py")
        assert len(findings) == 1
        assert "finally" in findings[0].message

    def test_false_positive_finally_cleanup(self):
        source = """
            from multiprocessing import shared_memory

            def export(data):
                block = shared_memory.SharedMemory(create=True, size=len(data))
                try:
                    block.buf[:len(data)] = data
                    publish(block.name)
                finally:
                    block.close()
                    block.unlink()
        """
        assert lint("BGL004", source, "src/repro/serve/router.py") == []

    def test_false_positive_factory_returns_block(self):
        # The _publish_blob pattern: ownership transfers to the caller.
        source = """
            from multiprocessing import shared_memory

            def allocate(nbytes):
                block = shared_memory.SharedMemory(create=True, size=nbytes)
                return block, nbytes
        """
        assert lint("BGL004", source, "src/repro/graph/partition.py") == []

    def test_false_positive_attach_is_not_creation(self):
        source = """
            from multiprocessing import shared_memory

            def attach(name):
                block = shared_memory.SharedMemory(name=name)
                consume(block)
        """
        assert lint("BGL004", source, "src/repro/serve/shard_worker.py") == []

    def test_out_of_scope_tests_not_checked(self):
        source = """
            from multiprocessing import shared_memory

            def leaky():
                shared_memory.SharedMemory(create=True, size=16)
        """
        assert lint("BGL004", source, "tests/test_example.py") == []


class TestBGL005GlobalRNG:
    def test_true_positive_numpy_module_functions(self):
        source = """
            import numpy as np

            def sample(n):
                np.random.seed(0)
                return np.random.rand(n)
        """
        findings = lint("BGL005", source, "src/repro/walks/frontier.py")
        assert len(findings) == 2

    def test_true_positive_stdlib_module_functions(self):
        source = """
            import random

            def jitter():
                return random.random()
        """
        findings = lint("BGL005", source, "examples/quickstart.py")
        assert len(findings) == 1
        assert "random.random" in findings[0].message

    def test_false_positive_seeded_constructors(self):
        source = """
            import random
            import numpy as np

            def build(seed):
                rng = np.random.default_rng(seed)
                legacy = random.Random(seed)
                sequence = np.random.SeedSequence(seed)
                return rng, legacy, sequence
        """
        assert lint("BGL005", source, "src/repro/utils/rng.py") == []

    def test_false_positive_instance_methods(self):
        # rng.random() is an instance draw, not the global module.
        source = """
            def draw(rng):
                return rng.random() + rng.integers(0, 10)
        """
        assert lint("BGL005", source, "src/repro/walks/frontier.py") == []

    def test_out_of_scope_tests_may_use_globals(self):
        source = """
            import numpy as np

            def noise():
                return np.random.rand(4)
        """
        assert lint("BGL005", source, "tests/test_example.py") == []


class TestBGL006SharedReplyQueue:
    def test_true_positive_shared_reply_queue(self):
        # The PR 7 deadlock: every worker replies into one shared queue.
        source = """
            import multiprocessing as mp

            class Pool:
                def __init__(self, workers):
                    self._replies = mp.Queue()
        """
        findings = lint("BGL006", source, "src/repro/serve/router.py")
        assert len(findings) == 1
        assert "Pipe" in findings[0].message

    def test_true_positive_context_result_queue(self):
        source = """
            def build(context):
                result_queue = context.Queue()
                return result_queue
        """
        assert len(lint("BGL006", source, "src/repro/serve/router.py")) == 1

    def test_false_positive_per_worker_inboxes(self):
        # Router-to-worker inboxes (single writer) keep the queue pattern.
        source = """
            class Pool:
                def __init__(self, context, workers):
                    self._inboxes = [context.Queue() for _ in range(workers)]
        """
        assert lint("BGL006", source, "src/repro/serve/router.py") == []

    def test_false_positive_threading_queue(self):
        # queue.Queue is in-process: no cross-process lock to die holding.
        source = """
            import queue

            class Service:
                def __init__(self):
                    self._results = queue.Queue()
        """
        assert lint("BGL006", source, "src/repro/serve/service.py") == []

    def test_bare_queue_import_detected(self):
        source = """
            from multiprocessing import Queue

            def build():
                reply_channel = Queue()
                return reply_channel
        """
        assert len(lint("BGL006", source, "src/repro/serve/router.py")) == 1


class TestBGL007ThreadDiscipline:
    def test_true_positive_unnamed_thread(self):
        source = """
            import threading

            def start(worker):
                thread = threading.Thread(target=worker, daemon=True)
                thread.start()
        """
        findings = lint("BGL007", source, "src/repro/serve/eventloop.py")
        assert len(findings) == 1
        assert "name=" in findings[0].message

    def test_true_positive_fire_and_forget(self):
        source = """
            import threading

            def start(worker):
                threading.Thread(target=worker, name="w").start()
        """
        findings = lint("BGL007", source, "examples/demo.py")
        assert len(findings) == 1
        assert "daemon" in findings[0].message

    def test_false_positive_named_daemon(self):
        source = """
            import threading

            def start(worker):
                thread = threading.Thread(
                    target=worker, name="graph-service-writer", daemon=True
                )
                thread.start()
        """
        assert lint("BGL007", source, "src/repro/serve/service.py") == []

    def test_false_positive_named_and_joined(self):
        source = """
            import threading

            def run(worker):
                threads = [
                    threading.Thread(target=worker, name=f"w-{i}")
                    for i in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        """
        assert lint("BGL007", source, "tests/test_example.py") == []


class TestBGL008ResponseEnvelope:
    PATH = "src/repro/serve/eventloop.py"

    def test_true_positive_send_error(self):
        source = """
            def handle(handler):
                handler.send_error(400, "bad request")
        """
        findings = lint("BGL008", source, self.PATH)
        assert len(findings) == 1
        assert "error_response" in findings[0].message

    def test_true_positive_literal_status_and_inline_envelope(self):
        source = """
            import json

            def handle(handler):
                handler.send_response(503)
                body = json.dumps({"error": {"code": "oops"}})
                handler.wfile.write(body.encode())
        """
        findings = lint("BGL008", source, self.PATH)
        assert len(findings) == 2

    def test_false_positive_protocol_built_response(self):
        source = """
            from repro.serve import protocol

            def handle(handler, exc, retry_after):
                response = protocol.error_response(exc, retry_after)
                handler.send_response(response.status)
        """
        assert lint("BGL008", source, self.PATH) == []

    def test_out_of_scope_protocol_module_owns_the_envelope(self):
        source = """
            def error_payload(code, message, retry_after):
                return {"error": {"code": code, "message": message,
                                  "retry_after": retry_after}}
        """
        assert lint("BGL008", source, "src/repro/serve/protocol.py") == []


class TestBGL009WallClockTiming:
    def test_true_positive_time_time_interval(self):
        source = """
            import time

            def measure(fn):
                started = time.time()
                fn()
                return time.time() - started
        """
        findings = lint("BGL009", source, "src/repro/bench/harness.py")
        assert len(findings) == 2
        assert "perf_counter" in findings[0].message

    def test_true_positive_from_import_alias(self):
        source = """
            from time import time

            def measure(fn):
                started = time()
                fn()
                return time() - started
        """
        assert len(lint("BGL009", source, "benchmarks/test_fig.py")) == 2

    def test_false_positive_monotonic_clocks(self):
        source = """
            import time

            def measure(fn):
                started = time.perf_counter()
                fn()
                busy = time.process_time()
                return time.perf_counter() - started, busy
        """
        assert lint("BGL009", source, "src/repro/utils/timing.py") == []

    def test_out_of_scope_serve_layer_wall_clock(self):
        # Deadlines in the serve layer legitimately use wall-clock time.
        source = """
            import time

            def deadline_in(seconds):
                return time.time() + seconds
        """
        assert lint("BGL009", source, "src/repro/serve/queries.py") == []


class TestBGL010TestTreeImports:
    def test_true_positive_src_imports_test_oracle(self):
        source = """
            import perfbench.server
            from tests.engines.scalar_batch_oracle import apply_batch_scalar

            def ingest(engine, batch):
                apply_batch_scalar(engine, batch)
        """
        findings = lint("BGL010", source, "src/repro/bench/experiments.py")
        assert len(findings) == 2
        assert "tests.engines.scalar_batch_oracle" in findings[1].message

    @pytest.mark.parametrize(
        "source",
        [
            "import tests\n",
            "import perfbench.run as run\n",
            "from benchmarks.conftest import fixture\n",
            "def load():\n    from tests.engines import bingo_oracle\n",
        ],
        ids=["bare", "aliased", "from", "function-local"],
    )
    def test_true_positive_every_import_form(self, source):
        assert len(lint("BGL010", source, "src/repro/engines/bingo.py")) == 1

    @pytest.mark.parametrize(
        "source",
        [
            "import testing\n",
            "from repro.tests_util import helper\n",
            "from . import tests\n",
            "from .perfbench import workload\n",
        ],
        ids=["prefix-name", "nested-name", "relative", "relative-submodule"],
    )
    def test_false_positive_every_import_form(self, source):
        assert lint("BGL010", source, "examples/quickstart.py") == []

    def test_out_of_scope_test_tree_imports_itself(self):
        source = "from tests.engines.bingo_oracle import per_vertex_build\n"
        assert lint("BGL010", source, "tests/engines/test_bingo_cold_build.py") == []
