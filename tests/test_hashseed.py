"""Results do not depend on ``PYTHONHASHSEED``.

``hash()`` of a ``str`` (and so of every parsed expression) changes
from process to process; a result, a row key or an iteration order
derived from it makes the same statement answer differently after a
restart.  One fixed battery of MiniSQL + MiniColumn statements runs in
a fresh interpreter per seed and must print the same ``repr``.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

BATTERY = '''
from repro.databases.minicolumn import MiniColumn
from repro.databases.minisql import MiniSQL
from repro.fs import PassthroughFS

STATEMENTS = [
    "SELECT s, count(*) c FROM t GROUP BY s ORDER BY count(*) DESC, s",
    "SELECT s, sum(v) sv, min(v) mn FROM t GROUP BY s ORDER BY sum(v)",
    "SELECT s, v, count(*) c FROM t GROUP BY s, v ORDER BY max(id) DESC LIMIT 4",
    "SELECT * FROM t WHERE v > 1 OR s = 'red' ORDER BY id",
    "SELECT count(s) c, sum(v + id) x FROM t",
]
for engine in (MiniSQL, MiniColumn):
    db = engine(PassthroughFS(block_size=256))
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, s TEXT)")
    for i in range(30):
        db.execute(f"INSERT INTO t VALUES ({i}, {i % 4}, '{('red', 'green', 'blue')[i % 3]}')")
    db.execute("UPDATE t SET v = 9 WHERE id = 7")
    db.execute("DELETE FROM t WHERE s = 'blue' AND v = 2")
    for sql in STATEMENTS:
        print(engine.__name__, sql, repr(db.execute(sql)))
'''


def _run(seed: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", BATTERY],
        env={
            **os.environ,
            "PYTHONPATH": str(Path(repro.__file__).parent.parent),
            "PYTHONHASHSEED": seed,
        },
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_results_are_identical_under_two_hash_seeds():
    first, second = _run("1"), _run("2")
    assert first.count("\n") == 10
    assert first == second
