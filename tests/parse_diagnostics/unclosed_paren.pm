// An unclosed '(' runs into the ';'.
main(input float x, output float y) {
    y = (x + 1;
}
