"""JSON without `json`, which loads `re`: byte for byte what `json.dumps(obj,
sort_keys=True, indent=2)` writes for the handlers' dicts with str keys,
lists, tuples, str, int, bool and None."""

# a UTF-16 code unit's escape, where `ensure_ascii` gives it a short one
_ESCAPES = {0x22: '\\"', 0x5C: "\\\\", 0x08: "\\b", 0x0C: "\\f", 0x0A: "\\n",
            0x0D: "\\r", 0x09: "\\t"}


def _string(text: str) -> str:
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    # every code unit outside 0x20-0x7E as \uXXXX, so an astral code point
    # is its surrogate pair: "utf-16" writes the units in native order
    # after a byte-order mark
    units = memoryview(text.encode("utf-16", "surrogatepass")).cast("H")[1:]
    return '"' + "".join(_ESCAPES.get(u) or (chr(u) if 0x20 <= u < 0x7F else "\\u%04x" % u)
                         for u in units) + '"'


def dumps(obj, indent: str = "") -> str:
    """`obj` as JSON text, nested `indent` deep; an int past the digit limit
    raises the ValueError that `json` raises, and any other type TypeError."""
    if isinstance(obj, str):
        return _string(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        items, (opening, closing) = [dumps(value, inner) for value in obj], "[]"
    elif isinstance(obj, dict):
        items, (opening, closing) = [f"{_string(key)}: {dumps(value, inner)}"
                                     for key, value in sorted(obj.items())], "{}"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    body = f",\n{inner}".join(items)
    return f"{opening}\n{inner}{body}\n{indent}{closing}" if items else opening + closing
