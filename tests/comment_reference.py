"""Reference comment stripper: a character loop, the oracle that the one
regex pass ``hwgraph.source.strip_comments`` must match on every text."""


def strip_comments_reference(text: str) -> str:
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(text[i:j])
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                i = n
            else:
                out.append("\n" * text.count("\n", i, j + 2))
                i = j + 2
        else:
            out.append(c)
            i += 1
    return "".join(out)
