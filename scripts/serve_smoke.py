#!/usr/bin/env python3
"""End-to-end smoke test for the crh_serve daemon (stdlib only).

Drives one full serving lifecycle the way an operator would, once per
truth mode (--truth-mode patchwork, then consistent):

  1. start crh_serve over a tiny two-source universe,
  2. ingest two chunks and read truths/weights back,
  3. SIGTERM the daemon and wait for the graceful drain (exit 0),
  4. restart with --resume, replay the same chunks (at-least-once),
  5. assert the served truths and weights are identical to step 2,
  6. drain via the socket `drain` command.

The second chunk repeats every (object, property, source) claim of the
first with a new value, so the consistent run exercises claim replacement.
Exits nonzero with a diagnostic on any divergence. CI runs this as the
`serve-smoke` job; locally:

  python3 scripts/serve_smoke.py build/src/crh_serve
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

UNIVERSE_CSV = """object_id,property,source_id,value
o1,temp,s1,10.0
o1,temp,s2,11.0
o2,temp,s1,20.0
o2,temp,s2,21.5
"""

# Two chunk payloads; the universe claims above are never ingested, they
# only define the object/source entry space truths are maintained in.
CHUNKS = [
    (0, """object_id,property,source_id,value
o1,temp,s1,10.0
o1,temp,s2,11.0
o2,temp,s1,20.0
o2,temp,s2,21.5
"""),
    (1, """object_id,property,source_id,value
o1,temp,s1,10.5
o1,temp,s2,10.6
o2,temp,s1,19.5
o2,temp,s2,20.0
"""),
]


def fail(message):
    print(f"serve_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


class Daemon:
    def __init__(self, binary, socket_path, universe, checkpoint_dir, log_path,
                 truth_mode):
        self.socket_path = socket_path
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [
                binary,
                "--socket", socket_path,
                "--schema", "temp:continuous",
                "--universe", universe,
                "--checkpoint-dir", checkpoint_dir,
                "--resume",
                "--truth-mode", truth_mode,
            ],
            stdout=self.log,
            stderr=self.log,
        )

    def connect(self, timeout_s=15.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                fail(f"daemon exited early with {self.proc.returncode}")
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(self.socket_path)
                return Client(sock)
            except OSError:
                sock.close()
                time.sleep(0.02)
        fail("daemon never came up")

    def wait_exit(self, timeout_s=30.0):
        try:
            return self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            fail("daemon did not exit within the deadline")

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


class Client:
    def __init__(self, sock):
        self.sock = sock
        self.buffer = b""

    def request(self, **fields):
        self.sock.sendall(json.dumps(fields).encode() + b"\n")
        while b"\n" not in self.buffer:
            data = self.sock.recv(65536)
            if not data:
                fail(f"connection closed mid-request: {fields}")
            self.buffer += data
        line, _, self.buffer = self.buffer.partition(b"\n")
        return json.loads(line)

    def close(self):
        self.sock.close()


def drive(client, expect_resumed):
    """Replays both chunks, waits for them to be solved, returns state."""
    for seq, (window_start, csv) in enumerate(CHUNKS):
        while True:
            reply = client.request(cmd="ingest", seq=seq,
                                   window_start=window_start, csv=csv)
            if reply.get("ok"):
                break
            if reply.get("error") == "overloaded":
                time.sleep(reply.get("retry_after_ms", 50) / 1000.0)
                continue
            fail(f"ingest seq {seq} rejected: {reply}")
    deadline = time.monotonic() + 30.0
    while True:
        status = client.request(cmd="status")
        if status.get("chunks_solved", 0) >= len(CHUNKS):
            break
        if time.monotonic() > deadline:
            fail(f"chunks never solved: {status}")
        time.sleep(0.01)
    if expect_resumed and status.get("chunks_resumed", 0) == 0:
        fail(f"expected a resumed stream, got {status}")
    truths = {
        obj: client.request(cmd="truth", object=obj, property="temp")
        for obj in ("o1", "o2")
    }
    for obj, reply in truths.items():
        if not reply.get("ok") or reply.get("value") is None:
            fail(f"truth query for {obj} failed: {reply}")
    weights = client.request(cmd="weights")
    if not weights.get("ok"):
        fail(f"weights query failed: {weights}")
    return {
        "truths": {obj: reply["value"] for obj, reply in truths.items()},
        "weights": dict(zip(weights["sources"], weights["weights"])),
    }


def lifecycle(binary, truth_mode):
    """Both daemon lifetimes in one truth mode, in a fresh directory."""
    with tempfile.TemporaryDirectory(prefix="crh_serve_smoke_") as root:
        universe = os.path.join(root, "universe.csv")
        with open(universe, "w") as handle:
            handle.write(UNIVERSE_CSV)
        checkpoint_dir = os.path.join(root, "ckpt")
        os.mkdir(checkpoint_dir)
        socket_path = os.path.join(root, "crh.sock")
        log_path = os.path.join(root, "daemon.log")

        # Lifetime 1: cold start, ingest, read, graceful SIGTERM drain.
        daemon = Daemon(binary, socket_path, universe, checkpoint_dir, log_path,
                        truth_mode)
        try:
            client = daemon.connect()
            before = drive(client, expect_resumed=False)
            client.close()
            daemon.proc.send_signal(signal.SIGTERM)
            code = daemon.wait_exit()
            if code != 0:
                fail(f"{truth_mode}: SIGTERM drain exited with {code}")
        finally:
            daemon.close()

        # Lifetime 2: resume, replay the same chunks, answers must match.
        daemon = Daemon(binary, socket_path, universe, checkpoint_dir, log_path,
                        truth_mode)
        try:
            client = daemon.connect()
            after = drive(client, expect_resumed=True)
            if before != after:
                fail(f"{truth_mode}: state diverged across restart:\n"
                     f"  before {before}\n  after  {after}")
            reply = client.request(cmd="drain")
            if not reply.get("ok"):
                fail(f"{truth_mode}: drain command rejected: {reply}")
            client.close()
            code = daemon.wait_exit()
            if code != 0:
                fail(f"{truth_mode}: socket drain exited with {code}")
        finally:
            daemon.close()
    print(f"serve_smoke: PASS {truth_mode} (ingest, SIGTERM drain, resume, "
          "bit-identical answers)")


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    binary = sys.argv[1]
    if not os.access(binary, os.X_OK):
        fail(f"{binary} is not executable")
    for truth_mode in ("patchwork", "consistent"):
        lifecycle(binary, truth_mode)


if __name__ == "__main__":
    main()
