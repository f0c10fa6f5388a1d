"""Freeze numpy's ziggurat and log-factorial tables into ``src/stratci/_ziggurat.py``.

    python3 tools/extract_ziggurat.py [--check]

numpy's ``random_standard_normal`` (a Marsaglia & Tsang ziggurat) reads the
tables ``ki_double`` (256 uint64) and ``wi_double`` (256 float64), local
symbols of ``src_distributions_distributions.c.o``; its ``logfactorial``,
which ``random_hypergeometric`` calls, reads ``logfact`` (126 float64, log k!
for k < 126), a local symbol of ``src_distributions_logfactorial.c.o``.
Both members are in the installed wheel's static library
``numpy/random/lib/libnpyrandom.a``.  This script parses the ``ar`` archive
and each member's ELF64 symbol table and writes the three tables as hex
literals, so that stratci's bulk kernels reproduce
``Generator(Philox(key)).standard_normal()`` and ``.hypergeometric()`` bit
for bit without reading the wheel at import time.  ``logfact`` cannot be
recomputed: 58 of its entries differ from ``math.lgamma(k + 1)``.  With ``--check`` it writes nothing and exits 1 if the
module differs from what it would write.  The standard library is all it
needs; numpy is located, not imported.
"""

from __future__ import annotations

import argparse
import importlib.util
import struct
import sys
from pathlib import Path

# Per archive member, its symbols in output order: (symbol, name in the module, entries, kind).
TABLES = {
    "src_distributions_distributions.c.o": (("ki_double", "KI", 256, "uint64"), ("wi_double", "WI", 256, "float64")),
    "src_distributions_logfactorial.c.o": (("logfact", "LOGFACT", 126, "float64"),),
}
OUTPUT = Path(__file__).resolve().parent.parent / "src" / "stratci" / "_ziggurat.py"


def library_path() -> Path:
    spec = importlib.util.find_spec("numpy")
    if spec is None or spec.origin is None:
        raise SystemExit("numpy is not installed")
    return Path(spec.origin).parent / "random" / "lib" / "libnpyrandom.a"


def ar_member(archive: bytes, wanted: str) -> bytes:
    """The data of the member named ``wanted`` in a System V / GNU ``ar`` archive."""
    if not archive.startswith(b"!<arch>\n"):
        raise SystemExit("not an ar archive")
    pos, long_names = 8, b""
    while pos + 60 <= len(archive):
        header = archive[pos:pos + 60]
        name = header[:16].decode("ascii").rstrip()
        size = int(header[48:58].decode("ascii"))
        data = archive[pos + 60:pos + 60 + size]
        pos += 60 + size + (size & 1)
        if name == "//":
            long_names = data
            continue
        if name.startswith("/") and name[1:].isdigit():
            start = int(name[1:])
            name = long_names[start:long_names.index(b"\n", start)].decode("ascii")
        if name.rstrip("/") == wanted:
            return data
    raise SystemExit(f"{wanted} is not in the archive")


def elf_symbols(obj: bytes, names: tuple[str, ...]) -> dict[str, bytes]:
    """The bytes of each named symbol, from a little-endian ELF64 relocatable object."""
    if obj[:4] != b"\x7fELF" or obj[4] != 2 or obj[5] != 1:
        raise SystemExit("not a little-endian ELF64 object")
    (shoff,) = struct.unpack_from("<Q", obj, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", obj, 0x3A)
    sections = [
        struct.unpack_from("<IIQQQQIIQQ", obj, shoff + i * shentsize) for i in range(shnum)
    ]
    found = {}
    for _, sh_type, _, _, offset, size, link, _, _, entsize in sections:
        if sh_type != 2:  # SHT_SYMTAB
            continue
        strtab = sections[link]
        for at in range(offset, offset + size, entsize):
            st_name, _, _, shndx, value, sym_size = struct.unpack_from("<IBBHQQ", obj, at)
            start = strtab[4] + st_name
            name = obj[start:obj.index(b"\0", start)].decode("ascii")
            if name in names:
                data_at = sections[shndx][4] + value
                found[name] = obj[data_at:data_at + sym_size]
    missing = set(names) - set(found)
    if missing:
        raise SystemExit(f"symbols not found: {', '.join(sorted(missing))}")
    return found


def module_text(tables: dict[str, bytes]) -> str:
    specs = [spec for member in TABLES.values() for spec in member]
    lines = [
        '"""numpy\'s ziggurat and log-factorial tables, as the bulk kernels read them.',
        "",
        "Generated by ``tools/extract_ziggurat.py`` from the installed wheel's",
        "``numpy/random/lib/libnpyrandom.a``; do not edit.  Each literal holds",
        "little-endian 8-byte entries: "
        + ", ".join(f"``{name}`` {size} {kind}" for _, name, size, kind in specs) + ".",
        "``KI`` and ``WI`` are the standard normal's ziggurat; ``LOGFACT[k]`` is",
        "numpy's log(k!) for k < 126, which its hypergeometric sampler reads.",
        '"""',
        "",
    ]
    for symbol, name, size, _ in specs:
        data = tables[symbol]
        if len(data) != 8 * size:
            raise SystemExit(f"{symbol} has {len(data)} bytes, expected {8 * size}")
        lines.append(f"{name} = bytes.fromhex(")
        hexed = data.hex()
        lines += [f'    "{hexed[i:i + 64]}"' for i in range(0, len(hexed), 64)]
        lines.append(")")
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true", help="exit 1 if the module differs; write nothing")
    args = parser.parse_args()
    archive = library_path().read_bytes()
    tables = {}
    for member, specs in TABLES.items():
        tables.update(elf_symbols(ar_member(archive, member), tuple(symbol for symbol, *_ in specs)))
    text = module_text(tables)
    if args.check:
        current = OUTPUT.read_text() if OUTPUT.exists() else ""
        if current != text:
            print(f"{OUTPUT.name} differs from the installed numpy's tables", file=sys.stderr)
            return 1
        print(f"{OUTPUT.name} matches the installed numpy's tables")
        return 0
    OUTPUT.write_text(text)
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
