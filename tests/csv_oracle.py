"""The CLI's CSV writer restated one field at a time.

Every field goes through its own Python call: a float as `%.17g`-style
17 significant digits, anything else through `str`, and the text quoted
when it holds a comma, a quote or a newline, with inner quotes doubled.
A column of one exact type, `float`, `int` or `bool`, skips the quote
scan, whose text can never need it.  The header is one `# key=value`
comment per config key and then per provenance key, each set sorted, and
the column names joined by commas.  The library formats the whole body in
one pass; the tests hold its bytes to these.
"""


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def csv_field(x) -> str:
    text = _fmt(x)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


_FORMATS = {float: "{:.17g}".format, int: str, bool: str}


def render_csv(document: dict) -> str:
    lines = []
    for key in sorted(document["config"]):
        lines.append(f"# {key}={_fmt(document['config'][key])}")
    for key in sorted(document["provenance"]):
        lines.append(f"# {key}={_fmt(document['provenance'][key])}")
    results = document["results"]
    if results:
        columns = list(results[0])
        lines.append(",".join(columns))
        texts = []
        for c in columns:
            values = [row[c] for row in results]
            kinds = set(map(type, values))
            field = _FORMATS.get(kinds.pop(), csv_field) if len(kinds) == 1 else csv_field
            texts.append(map(field, values))
        lines.extend(map(",".join, zip(*texts)))
    return "\n".join(lines) + "\n"
