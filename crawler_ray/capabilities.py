"""Startup capability probe (round-4 verdict item 6).

Every optional heavy dependency in the engine sits behind an import gate
(``HAVE_SOUNDFILE`` and the CLIP-tower gate in pipelines/multimodal.py)
so the same code runs real decoders on a full cluster and deterministic
stand-ins where the wheels are absent.
This module makes that state VISIBLE: bench.py embeds ``capability_report()``
in its JSON line, so an environment upgrade (a soundfile wheel appearing, CLIP
weights mounted) is noticed the round it happens instead of the stub paths
silently continuing to serve.
"""

from __future__ import annotations


def _importable(name: str) -> bool:
    import importlib.util

    try:
        return importlib.util.find_spec(name) is not None
    except (ImportError, ValueError):
        return False


def capability_report() -> dict[str, bool]:
    """One bool per optional capability; ``True`` means the REAL
    implementation serves, ``False`` means the declared stand-in
    (deterministic fake towers, NotImplementedError compressed-audio
    decode) is on the path."""
    caps = {
        "soundfile": _importable("soundfile"),
        "pillow": _importable("PIL"),
        "torch": _importable("torch"),
    }
    caps["clip_towers"] = caps["torch"] and caps["pillow"]
    return caps
