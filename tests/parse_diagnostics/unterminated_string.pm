main(input float x, output float y) {
    y = x;
    "this string never ends
}
