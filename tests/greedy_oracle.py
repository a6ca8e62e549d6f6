"""Window-scan greedy longest-match oracle used to cross-check the
production tokenizer.

At each start it tries every window from the longest piece length down to
one character, with no shortcut on the first character, no split into
runs and no memo, so agreement checks each of those paths.
"""


def greedy_oracle(vocab, text):
    max_len = max((len(p) for p in vocab), default=1)
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        piece = None
        for length in range(min(max_len, n - i), 0, -1):
            candidate = text[i:i + length]
            if candidate in vocab:
                piece = candidate
                break
        if piece is None:
            piece = text[i]
        tokens.append(piece)
        i += len(piece)
    return tokens
