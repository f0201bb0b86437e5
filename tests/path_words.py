"""Path words generated directly, as a reference independent of the bijections
and of the oracle's prefix walk."""


def all_path_words(n: int) -> tuple[str, ...]:
    """Every balanced word of semilength n, D before R, generated directly (no bijections)."""
    words: list[str] = []
    prefix: list[str] = []

    def rec(down: int, right: int) -> None:
        if down == n and right == n:
            words.append("".join(prefix))
            return
        if down < n:
            prefix.append("D")
            rec(down + 1, right)
            prefix.pop()
        if right < down:
            prefix.append("R")
            rec(down, right + 1)
            prefix.pop()

    rec(0, 0)
    return tuple(words)
