// Keywords cannot name locals, arguments, or components; the parser
// recovers after each error and reports the next one.
main(input float x, output float y) {
    float index;
    y = x;
}
f(input float input, output float y) {
    y = 1;
}
state(input float x, output float y) {
    y = x;
}
