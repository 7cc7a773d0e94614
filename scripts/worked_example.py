#!/usr/bin/env python3
"""Walk one seven-dimensional sign vector through the whole pipeline."""

import sys

from signschemes import (
    build_certificate,
    certificate_to_json,
    check_certificate,
    generate_scheme,
    render_trace,
)

EPS = (1, -1, 1, 1, -1, 1, 1)


def main() -> int:
    print("sign vector:", " ".join("+" if v > 0 else "-" for v in EPS))
    print()
    print("generated scheme:")
    print(generate_scheme(EPS).render())
    print()
    print("normalization trace:")
    print(render_trace(EPS))
    print()
    cert = build_certificate(EPS)
    print("certificate JSON:")
    print(certificate_to_json(cert))
    print()
    report = check_certificate(EPS, cert)
    print("checker verdict:", "accepted" if report.accepted else "rejected")
    return 0 if report.accepted else 1


if __name__ == "__main__":
    sys.exit(main())
