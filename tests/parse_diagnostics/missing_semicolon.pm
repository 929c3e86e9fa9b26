// A missing ';' is reported at the next statement's first token, and
// the parser recovers to report the error after it too.
main(input float x, output float y) {
    float t;
    t = x * 2
    y = t + 1;
    y = );
}
