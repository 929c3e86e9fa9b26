// Comparison is non-associative: `a < b < c` leaves the second '<'.
main(input float a, input float b, input float c, output float y) {
    y = a < b < c;
}
