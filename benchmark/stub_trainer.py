"""Deterministic line-protocol trainer for the ``p1-external`` workload.

Standard library only, so one training costs an interpreter start plus
one line round trip per epoch.  It reads the header
``CONFIG <tokens> EPOCHS <n> FRACTION <f> SEED <s>``, answers one
``EPOCH <e> ACC <a> LOSS <l> LR <r>`` line per epoch, stops early when the
parent replies ``STOP``, and always ends with ``DONE``.

The curve is a saturating exponential.  The farther the learning rate,
dropout and momentum lie from a fixed optimum, the lower its asymptote and
the slower it rises; a SHA-256 of the configuration and seed adds a small
jitter to both, so the same header always yields the same curve.  Curves
that are slow or low fall under the parent's milestone envelope, which
makes ``envelope-breach`` stops a regular outcome.
"""

import hashlib
import math
import sys


def _unit(*parts):
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def curve(config, fraction, seed):
    """(asymptote, time constant, learning rate) for one header."""
    values = dict(token.split("=", 1) for token in config.split())
    lr = float(values["learning_rate"])
    distance = (
        ((math.log10(lr) + 2.0) / 1.5) ** 2
        + ((float(values["dropout"]) - 0.3) / 0.5) ** 2
        + ((float(values["momentum"]) - 0.9) / 0.4) ** 2
    )
    asymptote = 0.12 + 0.8 * math.exp(-distance) * (0.8 + 0.2 * fraction)
    asymptote += 0.04 * (_unit("level", config, seed) - 0.5)
    tau = 5.0 + 25.0 * (1.0 - math.exp(-distance)) + 10.0 * _unit("pace", config, seed)
    return min(asymptote, 0.99), tau, lr


def main():
    header = sys.stdin.readline().split()
    if not header or header[0] != "CONFIG":
        print("DONE", flush=True)
        return 1
    at = header.index("EPOCHS")
    config = " ".join(header[1:at])
    epochs = int(header[at + 1])
    fraction = float(header[header.index("FRACTION") + 1])
    seed = int(header[header.index("SEED") + 1])
    asymptote, tau, lr = curve(config, fraction, seed)
    for epoch in range(1, epochs + 1):
        acc = round(0.1 + (asymptote - 0.1) * (1.0 - math.exp(-epoch / tau)), 4)
        loss = -math.log(max(acc, 1e-4))
        sys.stdout.write(f"EPOCH {epoch} ACC {acc!r} LOSS {loss!r} LR {lr!r}\n")
        sys.stdout.flush()
        reply = sys.stdin.readline().strip()
        if reply != "CONTINUE":
            break
    sys.stdout.write("DONE\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
