// '^' needs an operand on each side.
main(input float a, input float b, output float y) {
    y = a ^ ^ b;
}
