// `--x` is two unary minuses, not a decrement: this program is valid.
main(input float x, output float y) {
    y = --x;
}
