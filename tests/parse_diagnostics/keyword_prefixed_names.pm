// Identifiers that merely start with a keyword are names: valid.
main(input float inputs, input float DAx, output float floaty) {
    float indexes, reductions, DLL;
    indexes = inputs + DAx;
    reductions = indexes * 2;
    DLL = reductions - 1;
    floaty = DLL;
}
