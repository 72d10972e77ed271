"""The member lines that cdcodes.cli.write_codeset is tested against: one
%-template of the JSON member line per chunk, filled from the entries as
Python ints."""


def percent_member_lines(bases, chunk: int) -> str:
    """The member lines of an (M, k, N) bases array, a chunk of members at a time."""
    _, k, n = bases.shape
    line = "[" + ", ".join(["[" + ", ".join(["%d"] * n) + "]"] * k) + "]\n"
    return "".join((line * len(bases[lo:lo + chunk])) % tuple(bases[lo:lo + chunk].ravel().tolist())
                   for lo in range(0, len(bases), chunk))
