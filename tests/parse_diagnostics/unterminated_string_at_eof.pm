main(input float x, output float y) {
    y = x;
}
"no closing quote